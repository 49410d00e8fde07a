// Package milp is a 0-1 layer over lp.Problem: a model builder that writes
// its variables and rows straight into the lp.Problem it later solves, and a
// sequential branch-and-bound search over that Problem's 0-1 columns, each
// node an lp solve. Together with internal/lp it replaces the commercial
// Gurobi optimizer the paper uses: the layout models of internal/ilpmodel are
// pure 0-1 MILPs, and the progressive flow in internal/pilp keeps each model
// small enough for an exact branch-and-bound search whose node LPs
// warm-start from their parent's basis. The flow gets its concurrency by
// solving many models at once, so one search never spreads over several
// goroutines.
//
// Beyond plain variables and linear constraints the package offers two of
// the linearizations the paper relies on (its reference [13]):
// absolute-value and maximum envelopes. ilpmodel writes its big-M
// disjunctions as plain rows.
package milp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"rficlayout/internal/lp"
)

// Var is the index of a model variable.
type Var int

// Expr is a sparse linear expression: sum of coefficient·variable terms plus
// a constant. The zero value is the empty expression.
type Expr struct {
	terms    map[Var]float64
	constant float64
}

// NewExpr returns an empty expression.
func NewExpr() *Expr { return &Expr{terms: map[Var]float64{}} }

// Term returns a fresh expression holding coef·v.
func Term(v Var, coef float64) *Expr { return NewExpr().Add(v, coef) }

// Constant returns a fresh constant expression.
func Constant(c float64) *Expr { return NewExpr().AddConst(c) }

// Add accumulates coef·v into the expression and returns it for chaining.
func (e *Expr) Add(v Var, coef float64) *Expr {
	if e.terms == nil {
		e.terms = map[Var]float64{}
	}
	e.terms[v] += coef
	return e
}

// AddConst accumulates a constant term.
func (e *Expr) AddConst(c float64) *Expr {
	e.constant += c
	return e
}

// AddExpr accumulates scale·o into the expression.
func (e *Expr) AddExpr(o *Expr, scale float64) *Expr {
	if o == nil {
		return e
	}
	for v, c := range o.terms {
		e.Add(v, scale*c)
	}
	e.constant += scale * o.constant
	return e
}

// Sub accumulates −coef·v.
func (e *Expr) Sub(v Var, coef float64) *Expr { return e.Add(v, -coef) }

// Clone returns a deep copy.
func (e *Expr) Clone() *Expr {
	out := NewExpr()
	out.AddExpr(e, 1)
	return out
}

// Terms returns the variable terms sorted by variable index.
func (e *Expr) Terms() []lp.Entry {
	out := make([]lp.Entry, 0, len(e.terms))
	for v, c := range e.terms {
		if c != 0 {
			out = append(out, lp.Entry{Var: int(v), Coef: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Var < out[j].Var })
	return out
}

// Model is a mixed 0-1 linear program under construction. It builds the
// lp.Problem its search solves in place: a variable's index is its column
// there, and binary[j] marks column j as a 0-1 variable.
type Model struct {
	lp          lp.Problem
	binary      []bool
	objConstant float64
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// Infinity is re-exported for convenience when declaring unbounded variables.
var Infinity = lp.Infinity

// NumVars returns the number of variables declared so far.
func (m *Model) NumVars() int { return m.lp.NumVariables() }

// NumConstraints returns the number of constraints added so far.
func (m *Model) NumConstraints() int { return m.lp.NumConstraints() }

// NumBinaries returns the number of binary variables.
func (m *Model) NumBinaries() int {
	n := 0
	for _, b := range m.binary {
		if b {
			n++
		}
	}
	return n
}

// AddContinuous declares a continuous variable.
func (m *Model) AddContinuous(name string, lower, upper float64) Var {
	m.binary = append(m.binary, false)
	return Var(m.lp.AddVariable(name, lower, upper, 0))
}

// AddBinary declares a 0-1 variable.
func (m *Model) AddBinary(name string) Var {
	m.binary = append(m.binary, true)
	return Var(m.lp.AddVariable(name, 0, 1, 0))
}

// SetBounds replaces the bounds of variable v.
func (m *Model) SetBounds(v Var, lower, upper float64) { m.lp.SetBounds(int(v), lower, upper) }

// SetObjectiveCoef sets the (minimization) objective coefficient of v.
func (m *Model) SetObjectiveCoef(v Var, coef float64) { m.lp.Variables[v].Cost = coef }

// AddObjectiveCoef accumulates into the objective coefficient of v.
func (m *Model) AddObjectiveCoef(v Var, coef float64) { m.lp.Variables[v].Cost += coef }

// AddObjectiveExpr accumulates a whole expression (with constant) into the
// minimization objective.
func (m *Model) AddObjectiveExpr(e *Expr, scale float64) {
	for v, c := range e.terms {
		m.lp.Variables[v].Cost += scale * c
	}
	m.objConstant += scale * e.constant
}

// AddConstraintExpr adds the constraint "expr sense rhs". The constant part
// of the expression is moved to the right-hand side.
func (m *Model) AddConstraintExpr(name string, e *Expr, sense lp.Sense, rhs float64) {
	m.lp.AddConstraint(name, e.Terms(), sense, rhs-e.constant)
}

// AddLE adds expr <= rhs.
func (m *Model) AddLE(name string, e *Expr, rhs float64) {
	m.AddConstraintExpr(name, e, lp.LE, rhs)
}

// AddGE adds expr >= rhs.
func (m *Model) AddGE(name string, e *Expr, rhs float64) {
	m.AddConstraintExpr(name, e, lp.GE, rhs)
}

// AddEQ adds expr == rhs.
func (m *Model) AddEQ(name string, e *Expr, rhs float64) {
	m.AddConstraintExpr(name, e, lp.EQ, rhs)
}

// AbsEnvelope creates a continuous variable u with u >= |e| (an upper
// envelope of the absolute value of the expression). Minimizing u makes it
// tight. This is how the unmatched-length bound l_u,i of Eq. 24 is modeled.
func (m *Model) AbsEnvelope(name string, e *Expr, maxAbs float64) Var {
	u := m.AddContinuous(name, 0, maxAbs)
	// u >= e   and   u >= −e
	m.AddGE(name+".pos", Term(u, 1).AddExpr(e, -1), 0)
	m.AddGE(name+".neg", Term(u, 1).AddExpr(e, 1), 0)
	return u
}

// MaxEnvelope creates a continuous variable that is constrained to be at
// least each of the given expressions; minimizing it yields their maximum.
// Used for n_b,max (Eq. 21) and l_u,max (Eq. 25).
func (m *Model) MaxEnvelope(name string, upper float64, exprs ...*Expr) Var {
	v := m.AddContinuous(name, -Infinity, upper)
	for i, e := range exprs {
		m.AddGE(fmt.Sprintf("%s.ge%d", name, i), Term(v, 1).AddExpr(e, -1), 0)
	}
	return v
}

// Objective evaluates the full objective (including constant) at x.
func (m *Model) Objective(x []float64) float64 {
	v := m.objConstant
	for j, vr := range m.lp.Variables {
		if vr.Cost != 0 {
			v += vr.Cost * x[j]
		}
	}
	return v
}

// CheckFeasible reports whether x satisfies every bound, integrality
// requirement and constraint of the model within tol. It returns a
// description of the first violation found.
func (m *Model) CheckFeasible(x []float64, tol float64) (bool, string) {
	if len(x) < m.NumVars() {
		return false, fmt.Sprintf("assignment has %d values for %d variables", len(x), m.NumVars())
	}
	for j, vr := range m.lp.Variables {
		v := x[j]
		if v < vr.Lower-tol || v > vr.Upper+tol {
			return false, fmt.Sprintf("variable %s = %g outside [%g, %g]", vr.Name, v, vr.Lower, vr.Upper)
		}
		if m.binary[j] && math.Abs(v-math.Round(v)) > tol {
			return false, fmt.Sprintf("variable %s = %g not integral", vr.Name, v)
		}
	}
	for _, c := range m.lp.Constraints {
		lhs := 0.0
		for _, e := range c.Row {
			lhs += e.Coef * x[e.Var]
		}
		switch c.Sense {
		case lp.LE:
			if lhs > c.RHS+tol {
				return false, fmt.Sprintf("constraint %s: %g <= %g violated", c.Name, lhs, c.RHS)
			}
		case lp.GE:
			if lhs < c.RHS-tol {
				return false, fmt.Sprintf("constraint %s: %g >= %g violated", c.Name, lhs, c.RHS)
			}
		case lp.EQ:
			if math.Abs(lhs-c.RHS) > tol {
				return false, fmt.Sprintf("constraint %s: %g == %g violated", c.Name, lhs, c.RHS)
			}
		}
	}
	return true, ""
}

// Digest returns a SHA-256 over everything the solver reads from the model:
// every variable of its lp.Problem in order (name, bounds, objective
// coefficient, binary flag as 0/1), every constraint in order (name, row
// sorted by variable, sense, right-hand side) and the objective constant.
// SolveCtx is a pure function of the model and its options, so two models
// with equal digests solve to equal Results. Floats hash by their bit
// patterns; counts prefix every variable-length part, so no two distinct
// models share an encoding.
func (m *Model) Digest() [32]byte {
	h := sha256.New()
	buf := make([]byte, 0, 8192)
	uvarint := func(u uint64) { buf = binary.AppendUvarint(buf, u) }
	f64 := func(f float64) { buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(f)) }
	str := func(s string) { uvarint(uint64(len(s))); buf = append(buf, s...) }
	flush := func() {
		if len(buf) >= 4096 {
			h.Write(buf)
			buf = buf[:0]
		}
	}

	uvarint(uint64(len(m.lp.Variables)))
	for j, v := range m.lp.Variables {
		str(v.Name)
		f64(v.Lower)
		f64(v.Upper)
		f64(v.Cost)
		if m.binary[j] {
			uvarint(1)
		} else {
			uvarint(0)
		}
		flush()
	}
	uvarint(uint64(len(m.lp.Constraints)))
	for _, c := range m.lp.Constraints {
		// AddConstraintExpr stores every row sorted by variable (Expr.Terms).
		str(c.Name)
		uvarint(uint64(len(c.Row)))
		for _, e := range c.Row {
			uvarint(uint64(e.Var))
			f64(e.Coef)
		}
		uvarint(uint64(c.Sense))
		f64(c.RHS)
		flush()
	}
	f64(m.objConstant)
	h.Write(buf)
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

// Stats summarizes model size for logging.
func (m *Model) Stats() string {
	return fmt.Sprintf("%d vars (%d binary), %d constraints",
		m.NumVars(), m.NumBinaries(), m.NumConstraints())
}
