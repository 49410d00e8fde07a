package milp

import (
	"context"
	"math"
	"testing"

	"rficlayout/internal/lp"
)

// eval evaluates e at the assignment x (indexed by variable).
func eval(e *Expr, x []float64) float64 {
	v := e.constant
	for vr, c := range e.terms {
		v += c * x[vr]
	}
	return v
}

func TestExprBasics(t *testing.T) {
	e := NewExpr().Add(0, 2).Add(1, -3).AddConst(5)
	x := []float64{4, 1}
	if got := eval(e, x); got != 2*4-3*1+5 {
		t.Errorf("Eval = %g", got)
	}
	e.Add(0, 1) // accumulate onto existing term
	if got := eval(e, x); got != 3*4-3*1+5 {
		t.Errorf("Eval after accumulate = %g", got)
	}
	clone := e.Clone()
	clone.Add(1, 100)
	if eval(e, x) == eval(clone, x) {
		t.Error("Clone is not independent")
	}
	sum := NewExpr().AddExpr(e, 2)
	if got := eval(sum, x); got != 2*eval(e, x) {
		t.Errorf("AddExpr scale = %g", got)
	}
	if eval(Term(Var(1), 4), x) != 4 {
		t.Error("Term wrong")
	}
	if eval(Constant(7), x) != 7 {
		t.Error("Constant wrong")
	}
	if eval(NewExpr().Sub(0, 1), x) != -4 {
		t.Error("Sub wrong")
	}
	terms := e.Terms()
	if len(terms) != 2 || terms[0].Var != 0 || terms[1].Var != 1 {
		t.Errorf("Terms = %v", terms)
	}
}

func TestExprTermsDropsZeroCoefficients(t *testing.T) {
	e := NewExpr().Add(0, 2).Add(0, -2).Add(1, 1)
	terms := e.Terms()
	if len(terms) != 1 || terms[0].Var != 1 {
		t.Errorf("Terms = %v, want only var 1", terms)
	}
}

func TestModelVariableAccounting(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 10)
	b := m.AddBinary("b")
	y := m.AddContinuous("y", -1, 1)
	if m.NumVars() != 3 || m.NumBinaries() != 1 {
		t.Errorf("NumVars=%d NumBinaries=%d", m.NumVars(), m.NumBinaries())
	}
	if m.lp.Variables[x].Name != "x" || !m.binary[b] || m.binary[y] {
		t.Error("names or types wrong")
	}
	if v := m.lp.Variables[b]; v.Lower != 0 || v.Upper != 1 {
		t.Errorf("binary bounds = [%g, %g]", v.Lower, v.Upper)
	}
	m.SetBounds(x, 1, 4)
	if v := m.lp.Variables[x]; v.Lower != 1 || v.Upper != 4 {
		t.Errorf("SetBounds = [%g, %g]", v.Lower, v.Upper)
	}
	if m.Stats() == "" {
		t.Error("empty stats")
	}
}

func TestObjectiveAccumulation(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 10)
	y := m.AddContinuous("y", 0, 10)
	m.SetObjectiveCoef(x, 2)
	m.AddObjectiveCoef(x, 1)
	m.AddObjectiveExpr(Term(y, 4).AddConst(3), 2)
	assignment := []float64{1, 2}
	// objective = 3x + 8y + 6 = 3 + 16 + 6 = 25
	if got := m.Objective(assignment); got != 25 {
		t.Errorf("Objective = %g, want 25", got)
	}
	if m.objConstant != 6 {
		t.Errorf("objective constant = %g", m.objConstant)
	}
}

func TestCheckFeasible(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 10)
	b := m.AddBinary("b")
	m.AddLE("cap", Term(x, 1).Add(b, 5), 8)
	if ok, _ := m.CheckFeasible([]float64{3, 1}, 1e-6); !ok {
		t.Error("feasible point rejected")
	}
	if ok, why := m.CheckFeasible([]float64{4, 1}, 1e-6); ok {
		t.Error("constraint violation accepted")
	} else if why == "" {
		t.Error("missing violation description")
	}
	if ok, _ := m.CheckFeasible([]float64{3, 0.5}, 1e-6); ok {
		t.Error("fractional binary accepted")
	}
	if ok, _ := m.CheckFeasible([]float64{-1, 0}, 1e-6); ok {
		t.Error("bound violation accepted")
	}
	if ok, _ := m.CheckFeasible([]float64{1}, 1e-6); ok {
		t.Error("short assignment accepted")
	}
}

func TestCheckFeasibleSenses(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", -10, 10)
	m.AddGE("ge", Term(x, 1), 2)
	m.AddEQ("eq", Term(x, 2), 8)
	if ok, _ := m.CheckFeasible([]float64{4}, 1e-6); !ok {
		t.Error("x=4 should satisfy both")
	}
	if ok, _ := m.CheckFeasible([]float64{3}, 1e-6); ok {
		t.Error("x=3 violates the equality")
	}
	if ok, _ := m.CheckFeasible([]float64{1}, 1e-6); ok {
		t.Error("x=1 violates the ge constraint")
	}
}

func TestConstraintConstantMovesToRHS(t *testing.T) {
	// x + 3 <= 5 must behave as x <= 2.
	m := NewModel()
	x := m.AddContinuous("x", 0, 10)
	m.SetObjectiveCoef(x, -1)
	m.AddLE("c", Term(x, 1).AddConst(3), 5)
	res, err := m.SolveCtx(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.HasSolution() || math.Abs(res.X[x]-2) > 1e-6 {
		t.Errorf("x = %g, want 2 (status %v)", res.X[x], res.Status)
	}
}

func TestAbsEnvelope(t *testing.T) {
	// u >= |x - 7|, minimize u with x fixed: u must equal |x-7|.
	for _, fixed := range []float64{3, 7, 12} {
		m := NewModel()
		x := m.AddContinuous("x", 0, 20)
		m.AddEQ("fix", Term(x, 1), fixed)
		u := m.AbsEnvelope("u", Term(x, 1).AddConst(-7), 100)
		m.SetObjectiveCoef(u, 1)
		res, err := m.SolveCtx(context.Background(), SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := math.Abs(fixed - 7)
		if !res.Status.HasSolution() || math.Abs(res.X[u]-want) > 1e-6 {
			t.Errorf("x=%g: u = %g, want %g", fixed, res.X[u], want)
		}
	}
}

func TestMaxEnvelope(t *testing.T) {
	m := NewModel()
	a := m.AddContinuous("a", 0, 10)
	b := m.AddContinuous("b", 0, 10)
	m.AddEQ("fa", Term(a, 1), 3)
	m.AddEQ("fb", Term(b, 1), 8)
	mx := m.MaxEnvelope("max", 100, Term(a, 1), Term(b, 1))
	m.SetObjectiveCoef(mx, 1)
	res, err := m.SolveCtx(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.HasSolution() || math.Abs(res.X[mx]-8) > 1e-6 {
		t.Errorf("max = %g, want 8", res.X[mx])
	}
}

// TestVarIndicesAddressProblem pins that a Var is its column in the
// lp.Problem the search solves: bounds, costs and rows written through the
// Model land at that index.
func TestVarIndicesAddressProblem(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, 4)
	b := m.AddBinary("b")
	m.SetObjectiveCoef(x, 1)
	m.AddLE("c", Term(x, 1).Add(b, 2), 4)
	p := &m.lp
	if p.NumVariables() != 2 || p.NumConstraints() != 1 {
		t.Fatalf("lp size = %d vars, %d cons", p.NumVariables(), p.NumConstraints())
	}
	if p.Variables[x].Name != "x" || p.Variables[x].Cost != 1 || p.Variables[b].Upper != 1 {
		t.Error("lp variables not aligned with model variables")
	}
	row := p.Constraints[0].Row
	if len(row) != 2 || row[0] != (lp.Entry{Var: int(x), Coef: 1}) || row[1] != (lp.Entry{Var: int(b), Coef: 2}) {
		t.Errorf("row = %v", row)
	}
	if p.Constraints[0].Sense != lp.LE {
		t.Error("constraint sense lost")
	}
}

// digestModel builds a small model with every part Digest covers; each
// mutation applies one single-input change before the build finishes.
func digestModel(mutate func(*Model)) *Model {
	m := NewModel()
	x := m.AddContinuous("x", 0, 10)
	b := m.AddBinary("b")
	n := m.AddContinuous("n", -2, 5)
	m.SetObjectiveCoef(x, 1.5)
	m.SetObjectiveCoef(n, -1)
	m.AddObjectiveExpr(Constant(3), 1)
	m.AddLE("cap", Term(x, 2).Add(n, 1), 12)
	m.AddGE("link", Term(x, 1).Add(b, -4), 0)
	m.AddEQ("fix", Term(n, 1).Add(b, 1), 2)
	if mutate != nil {
		mutate(m)
	}
	return m
}

// TestDigestIdentifiesModel pins what the pilp solve memo keys on: equal
// builds digest equally, and a change to any single input the solver reads
// changes the digest.
func TestDigestIdentifiesModel(t *testing.T) {
	want := digestModel(nil).Digest()
	if got := digestModel(nil).Digest(); got != want {
		t.Fatalf("two equal builds digest differently: %x vs %x", got, want)
	}
	mutations := map[string]func(*Model){
		"lower bound":    func(m *Model) { m.SetBounds(0, 1, 10) },
		"upper bound":    func(m *Model) { m.SetBounds(2, -2, 6) },
		"cost":           func(m *Model) { m.SetObjectiveCoef(1, 0.25) },
		"variable type":  func(m *Model) { m.binary[1] = false },
		"variable name":  func(m *Model) { m.lp.Variables[0].Name = "y" },
		"row name":       func(m *Model) { m.lp.Constraints[1].Name = "link2" },
		"coefficient":    func(m *Model) { m.lp.Constraints[0].Row[0].Coef = 3 },
		"row variable":   func(m *Model) { m.lp.Constraints[2].Row[1].Var = 0 },
		"sense":          func(m *Model) { m.lp.Constraints[0].Sense = lp.GE },
		"rhs":            func(m *Model) { m.lp.Constraints[2].RHS = 3 },
		"obj constant":   func(m *Model) { m.AddObjectiveExpr(Constant(1), 1) },
		"extra variable": func(m *Model) { m.AddContinuous("z", 0, 1) },
		"extra row":      func(m *Model) { m.AddLE("more", Term(0, 1), 9) },
	}
	for name, mutate := range mutations {
		if got := digestModel(mutate).Digest(); got == want {
			t.Errorf("%s: digest unchanged", name)
		}
	}
}
