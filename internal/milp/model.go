// Package milp provides a mixed 0-1 linear programming model builder and a
// sequential branch-and-bound solver over 0-1 models on top of the simplex
// engine in internal/lp. Together they replace the commercial Gurobi
// optimizer the paper uses: the layout models of internal/ilpmodel are pure
// 0-1 MILPs, and the progressive flow in internal/pilp keeps each model small
// enough for an exact branch-and-bound search whose node LPs warm-start from
// their parent's basis. The flow gets its concurrency by solving many models
// at once, so one search never spreads over several goroutines.
//
// Beyond plain variables and linear constraints the package offers the
// linearization helpers the paper relies on (its reference [13]): products of
// a binary and a bounded continuous expression, absolute-value envelopes,
// big-M implications and maximum envelopes.
package milp

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"rficlayout/internal/lp"
)

// VarType describes the integrality requirement of a variable.
type VarType int

// Variable types.
const (
	Continuous VarType = iota
	Binary
)

// String implements fmt.Stringer.
func (v VarType) String() string {
	switch v {
	case Continuous:
		return "continuous"
	case Binary:
		return "binary"
	default:
		return fmt.Sprintf("VarType(%d)", int(v))
	}
}

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

// Constant returns the constant part of the expression.
func (e *Expr) ConstantPart() float64 { return e.constant }

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

// Eval evaluates the expression at the assignment x (indexed by variable).
func (e *Expr) Eval(x []float64) float64 {
	v := e.constant
	for vr, c := range e.terms {
		v += c * x[vr]
	}
	return v
}

// constraint is one stored linear constraint.
type constraint struct {
	name  string
	row   []lp.Entry
	sense lp.Sense
	rhs   float64
}

// Model is a mixed 0-1 linear program under construction.
type Model struct {
	names       []string
	lower       []float64
	upper       []float64
	objective   []float64
	vtypes      []VarType
	constraints []constraint
	objConstant float64

	auxCounter int
}

// NewModel returns an empty model.
func NewModel() *Model { return &Model{} }

// Infinity is re-exported for convenience when declaring unbounded variables.
var Infinity = lp.Infinity

// NumVars returns the number of variables declared so far.
func (m *Model) NumVars() int { return len(m.names) }

// NumConstraints returns the number of constraints added so far.
func (m *Model) NumConstraints() int { return len(m.constraints) }

// NumBinaries returns the number of binary variables.
func (m *Model) NumBinaries() int {
	n := 0
	for _, t := range m.vtypes {
		if t == Binary {
			n++
		}
	}
	return n
}

// AddVar declares a variable and returns its handle.
func (m *Model) AddVar(name string, lower, upper float64, vt VarType) Var {
	if vt == Binary {
		if lower < 0 {
			lower = 0
		}
		if upper > 1 {
			upper = 1
		}
	}
	m.names = append(m.names, name)
	m.lower = append(m.lower, lower)
	m.upper = append(m.upper, upper)
	m.objective = append(m.objective, 0)
	m.vtypes = append(m.vtypes, vt)
	return Var(len(m.names) - 1)
}

// AddContinuous declares a continuous variable.
func (m *Model) AddContinuous(name string, lower, upper float64) Var {
	return m.AddVar(name, lower, upper, Continuous)
}

// AddBinary declares a 0-1 variable.
func (m *Model) AddBinary(name string) Var {
	return m.AddVar(name, 0, 1, Binary)
}

// Name returns the name of variable v.
func (m *Model) Name(v Var) string { return m.names[v] }

// Bounds returns the declared bounds of variable v.
func (m *Model) Bounds(v Var) (lower, upper float64) { return m.lower[v], m.upper[v] }

// SetBounds replaces the bounds of variable v.
func (m *Model) SetBounds(v Var, lower, upper float64) {
	m.lower[v] = lower
	m.upper[v] = upper
}

// SetObjectiveCoef sets the (minimization) objective coefficient of v.
func (m *Model) SetObjectiveCoef(v Var, coef float64) { m.objective[v] = coef }

// AddObjectiveCoef accumulates into the objective coefficient of v.
func (m *Model) AddObjectiveCoef(v Var, coef float64) { m.objective[v] += coef }

// AddObjectiveExpr accumulates a whole expression (with constant) into the
// minimization objective.
func (m *Model) AddObjectiveExpr(e *Expr, scale float64) {
	for v, c := range e.terms {
		m.objective[v] += scale * c
	}
	m.objConstant += scale * e.constant
}

// AddConstraintExpr adds the constraint "expr sense rhs". The constant part
// of the expression is moved to the right-hand side.
func (m *Model) AddConstraintExpr(name string, e *Expr, sense lp.Sense, rhs float64) {
	m.constraints = append(m.constraints, constraint{
		name:  name,
		row:   e.Terms(),
		sense: sense,
		rhs:   rhs - e.ConstantPart(),
	})
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

// auxName generates a unique name for internally created variables.
func (m *Model) auxName(prefix string) string {
	m.auxCounter++
	return fmt.Sprintf("%s#%d", prefix, m.auxCounter)
}

// AbsEnvelope creates a continuous variable u with u >= |e| (an upper
// envelope of the absolute value of the expression). Minimizing u makes it
// tight. This is how the unmatched-length bound l_u,i of Eq. 24 is modeled.
func (m *Model) AbsEnvelope(name string, e *Expr, maxAbs float64) Var {
	if name == "" {
		name = m.auxName("abs")
	}
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
	if name == "" {
		name = m.auxName("max")
	}
	v := m.AddContinuous(name, -Infinity, upper)
	for i, e := range exprs {
		m.AddGE(fmt.Sprintf("%s.ge%d", name, i), Term(v, 1).AddExpr(e, -1), 0)
	}
	return v
}

// Objective evaluates the full objective (including constant) at x.
func (m *Model) Objective(x []float64) float64 {
	v := m.objConstant
	for j, c := range m.objective {
		if c != 0 {
			v += c * x[j]
		}
	}
	return v
}

// CheckFeasible reports whether x satisfies every bound, integrality
// requirement and constraint of the model within tol. It returns a
// description of the first violation found.
func (m *Model) CheckFeasible(x []float64, tol float64) (bool, string) {
	if len(x) < len(m.names) {
		return false, fmt.Sprintf("assignment has %d values for %d variables", len(x), len(m.names))
	}
	for j := range m.names {
		v := x[j]
		if v < m.lower[j]-tol || v > m.upper[j]+tol {
			return false, fmt.Sprintf("variable %s = %g outside [%g, %g]", m.names[j], v, m.lower[j], m.upper[j])
		}
		if m.vtypes[j] == Binary && math.Abs(v-math.Round(v)) > tol {
			return false, fmt.Sprintf("variable %s = %g not integral", m.names[j], v)
		}
	}
	for _, c := range m.constraints {
		lhs := 0.0
		for _, e := range c.row {
			lhs += e.Coef * x[e.Var]
		}
		switch c.sense {
		case lp.LE:
			if lhs > c.rhs+tol {
				return false, fmt.Sprintf("constraint %s: %g <= %g violated", c.name, lhs, c.rhs)
			}
		case lp.GE:
			if lhs < c.rhs-tol {
				return false, fmt.Sprintf("constraint %s: %g >= %g violated", c.name, lhs, c.rhs)
			}
		case lp.EQ:
			if math.Abs(lhs-c.rhs) > tol {
				return false, fmt.Sprintf("constraint %s: %g == %g violated", c.name, lhs, c.rhs)
			}
		}
	}
	return true, ""
}

// toLP converts the model into an lp.Problem sharing the same variable
// indices.
func (m *Model) toLP() *lp.Problem {
	p := lp.NewProblem()
	for j := range m.names {
		p.AddVariable(m.names[j], m.lower[j], m.upper[j], m.objective[j])
	}
	for _, c := range m.constraints {
		p.AddConstraint(c.name, c.row, c.sense, c.rhs)
	}
	return p
}

// Digest returns a SHA-256 over everything the solver reads from the model:
// every variable in order (name, bounds, objective coefficient, type), every
// constraint in order (name, row sorted by variable, sense, right-hand side)
// and the objective constant. SolveCtx is a pure function of the model and
// its options, so two models with equal digests solve to equal Results.
// Floats hash by their bit patterns; counts prefix every variable-length
// part, so no two distinct models share an encoding.
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

	uvarint(uint64(len(m.names)))
	for j, name := range m.names {
		str(name)
		f64(m.lower[j])
		f64(m.upper[j])
		f64(m.objective[j])
		uvarint(uint64(m.vtypes[j]))
		flush()
	}
	uvarint(uint64(len(m.constraints)))
	for _, c := range m.constraints {
		// AddConstraintExpr stores every row sorted by variable (Expr.Terms).
		str(c.name)
		uvarint(uint64(len(c.row)))
		for _, e := range c.row {
			uvarint(uint64(e.Var))
			f64(e.Coef)
		}
		uvarint(uint64(c.sense))
		f64(c.rhs)
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
