// Package lp implements a bounded-variable simplex solver for linear
// programs. It is the continuous-relaxation engine underneath the MILP
// branch-and-bound solver in internal/milp, which together replace the
// commercial Gurobi optimizer used by the paper.
//
// The solver handles general variable bounds (including free and fixed
// variables), the three constraint senses, minimization objectives, and
// reports optimal, infeasible, unbounded or iteration-limited outcomes.
//
// Two algorithms share one driver and one basis-inverse engine:
//
//   - a primal simplex with a phase-1 artificial-variable start, used for
//     cold solves;
//   - a dual simplex that starts from an imported Basis (Options.WarmBasis),
//     used by branch-and-bound to re-solve a child node from its parent's
//     optimal basis after a single bound change, skipping phase 1 entirely.
//
// The engine is a sparse revised simplex: the constraint matrix in compressed
// sparse column form, the basis inverse as an elimination-form LU
// factorization held in product form (an eta sequence) with one product-form
// eta appended per pivot, periodic refactorization, and FTRAN/BTRAN solves
// producing tableau columns, pivot rows and reduced costs on demand. The
// tests run the same driver over a dense tableau (T = B⁻¹·A materialized in
// full, every pivot a full elimination) as a reference oracle.
//
// Pricing is Dantzig's rule; after a run of degenerate pivots both simplex
// variants switch to Bland-style index rules so they cannot cycle. Both rules
// are deterministic, so the pivot sequence — and therefore the returned
// vertex — is a pure function of (problem, options). At optimality the solver
// additionally canonicalizes degenerate optima by a lexicographic descent
// over zero-reduced-cost directions and refactorizes the final basis from the
// raw problem data, so warm- and cold-started solves of the same problem
// agree not just on the objective but on the solution vector itself.
package lp

import (
	"fmt"
	"math"
)

// Infinity is the bound value meaning "unbounded" in that direction.
var Infinity = math.Inf(1)

// Sense is the relation of a linear constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // left-hand side <= rhs
	GE              // left-hand side >= rhs
	EQ              // left-hand side == rhs
)

// String implements fmt.Stringer.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "=="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Entry is one coefficient of a sparse linear expression: Coef * variable Var.
type Entry struct {
	Var  int
	Coef float64
}

// Variable describes one decision variable of a Problem.
type Variable struct {
	Name  string
	Lower float64
	Upper float64
	Cost  float64 // objective coefficient (minimization)
}

// Constraint is one linear constraint of a Problem. Row coefficients are
// stored sparsely; duplicate variable entries are summed when the problem is
// loaded by the solver.
type Constraint struct {
	Name  string
	Row   []Entry
	Sense Sense
	RHS   float64
}

// Problem is a linear program in the form
//
//	minimize    cᵀx
//	subject to  row_i(x) (<=|>=|==) rhs_i
//	            lower_j <= x_j <= upper_j
//
// Build it with NewProblem / AddVariable / AddConstraint and pass it to
// Solve. A Problem can be solved repeatedly with different bound overrides,
// which is how the branch-and-bound solver explores its tree.
type Problem struct {
	Variables   []Variable
	Constraints []Constraint
}

// NewProblem returns an empty problem.
func NewProblem() *Problem {
	return &Problem{}
}

// NumVariables returns the number of variables added so far.
func (p *Problem) NumVariables() int { return len(p.Variables) }

// NumConstraints returns the number of constraints added so far.
func (p *Problem) NumConstraints() int { return len(p.Constraints) }

// AddVariable adds a variable with the given bounds and objective cost and
// returns its index. Use -Infinity / Infinity for unbounded directions.
func (p *Problem) AddVariable(name string, lower, upper, cost float64) int {
	p.Variables = append(p.Variables, Variable{Name: name, Lower: lower, Upper: upper, Cost: cost})
	return len(p.Variables) - 1
}

// SetCost sets the objective coefficient of variable v.
func (p *Problem) SetCost(v int, cost float64) {
	p.Variables[v].Cost = cost
}

// SetBounds sets the bounds of variable v.
func (p *Problem) SetBounds(v int, lower, upper float64) {
	p.Variables[v].Lower = lower
	p.Variables[v].Upper = upper
}

// AddConstraint adds a constraint and returns its index.
func (p *Problem) AddConstraint(name string, row []Entry, sense Sense, rhs float64) int {
	cp := make([]Entry, len(row))
	copy(cp, row)
	p.Constraints = append(p.Constraints, Constraint{Name: name, Row: cp, Sense: sense, RHS: rhs})
	return len(p.Constraints) - 1
}

// Validate checks structural consistency: variable indices in range, finite
// RHS values, lower <= upper for every variable.
func (p *Problem) Validate() error {
	n := len(p.Variables)
	for j, v := range p.Variables {
		if v.Lower > v.Upper {
			return fmt.Errorf("lp: variable %d (%q) has lower bound %g > upper bound %g", j, v.Name, v.Lower, v.Upper)
		}
		if math.IsNaN(v.Lower) || math.IsNaN(v.Upper) || math.IsNaN(v.Cost) {
			return fmt.Errorf("lp: variable %d (%q) has NaN bound or cost", j, v.Name)
		}
	}
	for i, c := range p.Constraints {
		if math.IsInf(c.RHS, 0) || math.IsNaN(c.RHS) {
			return fmt.Errorf("lp: constraint %d (%q) has non-finite rhs %g", i, c.Name, c.RHS)
		}
		for _, e := range c.Row {
			if e.Var < 0 || e.Var >= n {
				return fmt.Errorf("lp: constraint %d (%q) references variable %d out of range [0,%d)", i, c.Name, e.Var, n)
			}
			if math.IsNaN(e.Coef) || math.IsInf(e.Coef, 0) {
				return fmt.Errorf("lp: constraint %d (%q) has non-finite coefficient for variable %d", i, c.Name, e.Var)
			}
		}
	}
	return nil
}

// Status is the outcome of an LP solve.
type Status int

// Solve outcomes.
const (
	StatusUnknown Status = iota
	StatusOptimal
	StatusInfeasible
	StatusUnbounded
	StatusIterLimit
	// StatusCancelled means the context passed to SolveCtx was cancelled or
	// its deadline expired before the solve finished.
	StatusCancelled
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusIterLimit:
		return "iteration-limit"
	case StatusCancelled:
		return "cancelled"
	default:
		return "unknown"
	}
}

// Solution is the result of an LP solve.
type Solution struct {
	Status    Status
	Objective float64
	X         []float64 // one value per problem variable
	// Iterations is the simplex pivot count across all phases (primal,
	// dual and the canonicalization pass).
	Iterations int
	// Refactorizations counts full rebuilds of the basis inverse from the
	// raw problem data: one per solve setup (cold start or accepted warm
	// basis), two at optimality (before and after canonicalization), plus
	// every periodic or drift-triggered rebuild of the eta chain between
	// pivots.
	Refactorizations int
	// PeakEta is the longest product-form eta chain the solve carried
	// between refactorizations (update etas only, not the factorization
	// itself).
	PeakEta int
	// WarmStarted reports whether Options.WarmBasis was accepted and the
	// solve ran the dual simplex from it instead of a phase-1 cold start.
	WarmStarted bool
	// Basis is the optimal basis, exportable into Options.WarmBasis of a
	// subsequent solve with modified bounds. It is nil unless the status is
	// StatusOptimal and the final basis is free of artificial columns.
	Basis *Basis
}

// Value returns the solved value of variable v.
func (s *Solution) Value(v int) float64 { return s.X[v] }

// Options tunes the solver.
type Options struct {
	// MaxIterations bounds the total number of simplex pivots across both
	// phases. Zero means a generous default based on problem size.
	MaxIterations int
	// Tolerance is the feasibility / optimality tolerance. Zero means 1e-7.
	Tolerance float64
	// RefactorEvery forces a basis-inverse refactorization every that many
	// pivots; it doubles as the cap on the product-form eta chain between
	// refactorizations. Zero means 64.
	RefactorEvery int
	// LowerOverride / UpperOverride, when non-nil, replace the bounds of the
	// variables whose indices appear in the map. The branch-and-bound solver
	// uses these to explore branches without copying the whole problem.
	LowerOverride map[int]float64
	UpperOverride map[int]float64
	// WarmBasis, when non-nil, is a basis exported by a previous solve of
	// the same problem (typically with different bound overrides). If it is
	// still dual-feasible under the new bounds the solve starts the dual
	// simplex from it; otherwise the solver falls back to a cold primal
	// solve. The basis is read-only to the solver.
	WarmBasis *Basis

	// newCore, set only by this package's tests, replaces the sparse core
	// with another basis-inverse engine (the dense tableau oracle).
	newCore func(*simplex) tableauCore
}

func (o Options) tolerance() float64 {
	if o.Tolerance > 0 {
		return o.Tolerance
	}
	return 1e-7
}

func (o Options) refactorEvery() int {
	if o.RefactorEvery > 0 {
		return o.RefactorEvery
	}
	return 64
}

func (o Options) maxIterations(m, n int) int {
	if o.MaxIterations > 0 {
		return o.MaxIterations
	}
	it := 200 * (m + n)
	if it < 2000 {
		it = 2000
	}
	return it
}
