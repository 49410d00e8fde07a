package lp

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

// chainProblem builds a minimization with enough structure to force a long
// pivot sequence: coupled pairwise constraints over n variables plus one
// shared capacity row.
func chainProblem(n int) *Problem {
	p := NewProblem()
	vars := make([]int, n)
	for i := 0; i < n; i++ {
		vars[i] = p.AddVariable(fmt.Sprintf("x%d", i), 0, Infinity, -float64(1+i%3))
	}
	for i := 0; i+1 < n; i++ {
		p.AddConstraint(fmt.Sprintf("c%d", i), []Entry{{vars[i], 1}, {vars[i+1], 2}}, LE, float64(4+i%5))
	}
	all := make([]Entry, n)
	for i, v := range vars {
		all[i] = Entry{v, 1}
	}
	p.AddConstraint("cap", all, LE, float64(n))
	return p
}

// TestEtaChainCapRespected: RefactorEvery caps the sparse core's update-eta
// chain — a solve long enough to cross the cap many times must report a peak
// chain no longer than the cap, more refactorizations than the default
// cadence, and the same optimum.
func TestEtaChainCapRespected(t *testing.T) {
	p := chainProblem(40)
	def := solveOrFatal(t, p, Options{})
	capped := solveOrFatal(t, p, Options{RefactorEvery: 4})
	if capped.Status != StatusOptimal {
		t.Fatalf("capped solve status = %v", capped.Status)
	}
	if capped.PeakEta > 4 {
		t.Errorf("peak eta chain %d exceeds the RefactorEvery cap 4", capped.PeakEta)
	}
	if capped.PeakEta < 1 {
		t.Errorf("peak eta chain %d: solve pivoted but recorded no update etas", capped.PeakEta)
	}
	if capped.Refactorizations <= def.Refactorizations {
		t.Errorf("capped solve refactorized %d times, default cadence %d — the cap did not bind",
			capped.Refactorizations, def.Refactorizations)
	}
	if math.Abs(capped.Objective-def.Objective) > 1e-7 {
		t.Errorf("objective drifted under the tight cap: %g vs %g", capped.Objective, def.Objective)
	}
	for j := range def.X {
		if math.Abs(capped.X[j]-def.X[j]) > 1e-7 {
			t.Errorf("x[%d] = %g under the tight cap, %g under the default", j, capped.X[j], def.X[j])
		}
	}
}

// TestDriftTriggersRefactorization: an update pivot below the drift tolerance
// must force an immediate refactorization instead of extending the eta chain
// with a near-singular factor. The problem takes two pivots: x enters first
// on a pivot element of 1e-8, then y on a pivot element of 1. With the guard
// the solve builds three times — setup, the drift rebuild after x, and the
// rebuild at optimality that y's pivot calls for. Without it the build after
// x never happens, and the count is two. (A one-pivot problem cannot tell the
// two apart: the drift rebuild would stand in for the one at optimality.)
func TestDriftTriggersRefactorization(t *testing.T) {
	twoPivots := func(xCoef float64) *Problem {
		p := NewProblem()
		x := p.AddVariable("x", 0, 10, -2)
		y := p.AddVariable("y", 0, 10, -1)
		p.AddConstraint("cx", []Entry{{x, xCoef}}, LE, xCoef)
		p.AddConstraint("cy", []Entry{{y, 1}}, LE, 1)
		return p
	}
	for _, tc := range []struct {
		name       string
		xCoef      float64
		refactored int
	}{
		{"tiny pivot", 1e-8, 3},
		// The well-scaled statement of the same problem must not trip the guard.
		{"well scaled", 1, 2},
	} {
		sol := solveOrFatal(t, twoPivots(tc.xCoef), Options{})
		if math.Abs(sol.X[0]-1) > 1e-6 || math.Abs(sol.X[1]-1) > 1e-6 {
			t.Errorf("%s: x = %v, want [1 1]", tc.name, sol.X)
		}
		if sol.Iterations != 2 || sol.Refactorizations != tc.refactored {
			t.Errorf("%s: %d pivots, %d refactorizations; want 2, %d",
				tc.name, sol.Iterations, sol.Refactorizations, tc.refactored)
		}
	}
}

// TestSingularWarmBasisFallsBackCold: a warm basis whose basic columns are
// linearly dependent must be rejected by the deterministic refactorization —
// installBasis fails, the solve silently falls back to the cold path, and the
// reported solution is still optimal (with WarmStarted false). The dense
// oracle must reject the basis the same way.
func TestSingularWarmBasisFallsBackCold(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, Infinity, -3)
	y := p.AddVariable("y", 0, Infinity, -5)
	p.AddConstraint("c1", []Entry{{x, 1}, {y, 1}}, LE, 4)
	p.AddConstraint("c2", []Entry{{x, 2}, {y, 2}}, LE, 9)

	// Both structural columns basic: the basis matrix is [[1,1],[2,2]],
	// rank 1. Dimensionally the basis is compatible, so only the singularity
	// check can reject it.
	singular := &Basis{
		Basic:  []int32{0, 1},
		Status: []BasisStatus{BasisBasic, BasisBasic, BasisAtLower, BasisAtLower},
	}
	for _, tc := range []struct {
		core string
		opts Options
	}{
		{"sparse", Options{}},
		{"dense", denseOracle(Options{})},
	} {
		ref := solveOrFatal(t, p, tc.opts)
		warm := tc.opts
		warm.WarmBasis = singular
		sol := solveOrFatal(t, p, warm)
		if sol.Status != StatusOptimal {
			t.Fatalf("core %s: status = %v", tc.core, sol.Status)
		}
		if sol.WarmStarted {
			t.Errorf("core %s: solve claims a warm start from a singular basis", tc.core)
		}
		if math.Abs(sol.Objective-ref.Objective) > 1e-9 {
			t.Errorf("core %s: fallback objective %g, cold reference %g", tc.core, sol.Objective, ref.Objective)
		}
	}
}

// TestSingularBuildLeavesCoreIntact: a refactorization that finds its basic
// set singular changes nothing the core or the driver reads, and leaves no
// scratch behind that a later build could read. On a 70-row LP where x0 and
// x1 have identical columns (rows 5 and 67, so a build's row pattern spans
// two words), one core builds {x0, x3}, dirties its scratch with a pivot
// row, then fails to build {x0, x1}: x1 FTRANs to a unit at row 67, which
// x0 holds. The factor, the row assignment and the basic values stay as
// they were. The same core then builds {x2, x3}, where x2 (rows 5 and 6)
// has no entry at row 67, and that factor, row assignment and basic values
// equal a fresh core's build of {x2, x3} bit for bit.
func TestSingularBuildLeavesCoreIntact(t *testing.T) {
	const m = 70
	p := NewProblem()
	x0 := p.AddVariable("x0", 0, 10, 0)
	x1 := p.AddVariable("x1", 0, 10, 0)
	x2 := p.AddVariable("x2", 0, 10, 0)
	x3 := p.AddVariable("x3", 0, 10, 0)
	for i := 0; i < m; i++ {
		row := []Entry{{x3, float64(i%5 + 1)}}
		switch i {
		case 5:
			row = append(row, Entry{x0, 2}, Entry{x1, 2}, Entry{x2, 0.5})
		case 6:
			row = append(row, Entry{x2, 1})
		case 67:
			row = append(row, Entry{x0, -3}, Entry{x1, -3})
		}
		p.AddConstraint(fmt.Sprintf("c%d", i), row, LE, float64(50+i))
	}
	// core returns a cold solver's sparse core on p.
	core := func() *sparseCore {
		s, err := newSimplex(p, Options{}, new(workspace))
		if err != nil {
			t.Fatal(err)
		}
		return s.core.(*sparseCore)
	}
	// install makes a and b basic in rows 5 and 67, the other slacks basic
	// in their own rows, and every nonbasic column sit at its upper bound,
	// or at 0 for the slacks of rows 5 and 67.
	install := func(c *sparseCore, a, b int) {
		s := c.s
		for j := range s.status {
			s.status[j] = BasisAtUpper
		}
		for i := range s.basis {
			s.basis[i] = s.nStruct + i
		}
		s.status[s.nStruct+5], s.status[s.nStruct+67] = BasisAtLower, BasisAtLower
		s.basis[5], s.basis[67] = a, b
		for _, j := range s.basis {
			s.status[j] = BasisBasic
		}
	}

	c := core()
	install(c, x0, x3)
	if !c.refactorize() {
		t.Fatal("build of {x0, x3} reports a singular basis")
	}
	factor := c.factor
	if factor.count() != 2 {
		t.Fatalf("factor of {x0, x3} holds %d etas, want 2", factor.count())
	}
	c.pivotRow(67, c.s.prowBuf)
	want := etaFile{
		rowOf: slices.Clone(factor.rowOf),
		piv:   slices.Clone(factor.piv),
		start: slices.Clone(factor.start),
		idx:   slices.Clone(factor.idx),
		val:   slices.Clone(factor.val),
	}
	beta := slices.Clone(c.s.beta)

	install(c, x0, x1)
	basis := slices.Clone(c.s.basis)
	if c.refactorize() {
		t.Fatal("build of {x0, x1} succeeded on identical columns")
	}
	if c.factor != factor {
		t.Fatal("singular build replaced the factor")
	}
	sameEtaFile(t, "factor after the singular build", c.factor, &want)
	sameFloats(t, "basic values after the singular build", c.s.beta, beta)
	if !slices.Equal(c.s.basis, basis) {
		t.Fatalf("singular build moved the row assignment %v to %v", basis, c.s.basis)
	}

	fresh := core()
	for _, k := range []*sparseCore{c, fresh} {
		install(k, x2, x3)
		if !k.refactorize() {
			t.Fatal("build of {x2, x3} reports a singular basis")
		}
	}
	sameEtaFile(t, "factor rebuilt after the singular build", c.factor, fresh.factor)
	sameFloats(t, "basic values", c.s.beta, fresh.s.beta)
	if !slices.Equal(c.s.basis, fresh.s.basis) {
		t.Errorf("row assignment %v, fresh core %v", c.s.basis, fresh.s.basis)
	}
}

// sameEtaFile fails t unless got and want hold the same etas bit for bit.
func sameEtaFile(t *testing.T, what string, got, want *etaFile) {
	t.Helper()
	if !slices.Equal(got.rowOf, want.rowOf) || !slices.Equal(got.start, want.start) || !slices.Equal(got.idx, want.idx) {
		t.Fatalf("%s: pivot rows %v, starts %v, entry rows %v; want %v, %v, %v",
			what, got.rowOf, got.start, got.idx, want.rowOf, want.start, want.idx)
	}
	sameFloats(t, what+" piv", got.piv, want.piv)
	sameFloats(t, what+" val", got.val, want.val)
}

// sameFloats fails t unless got and want are equal as Float64bits.
func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for k := range want {
		if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
			t.Fatalf("%s[%d] = %v, want %v", what, k, got[k], want[k])
		}
	}
}

// TestCoresAgreeOnIllConditioned: a Hilbert-matrix LP is about as badly
// conditioned as small dense problems get; the sparse core must still land on
// the canonicalized optimum the dense oracle reaches.
func TestCoresAgreeOnIllConditioned(t *testing.T) {
	const n = 6
	p := NewProblem()
	vars := make([]int, n)
	for j := 0; j < n; j++ {
		vars[j] = p.AddVariable(fmt.Sprintf("h%d", j), 0, 10, -1)
	}
	for i := 0; i < n; i++ {
		row := make([]Entry, n)
		rhs := 0.0
		for j := 0; j < n; j++ {
			coef := 1 / float64(i+j+1)
			row[j] = Entry{vars[j], coef}
			rhs += coef
		}
		p.AddConstraint(fmt.Sprintf("r%d", i), row, LE, rhs)
	}

	ref := solveOrFatal(t, p, denseOracle(Options{}))
	sol := solveOrFatal(t, p, Options{})
	for name, s := range map[string]*Solution{"dense": ref, "sparse": sol} {
		if s.Status != StatusOptimal {
			t.Fatalf("%s: status = %v", name, s.Status)
		}
	}
	if ref.PeakEta != 0 {
		t.Fatalf("oracle solve reports an eta chain of %d: the dense core was not used", ref.PeakEta)
	}
	if math.Abs(sol.Objective-ref.Objective) > 1e-6 {
		t.Errorf("objective %g, dense oracle %g", sol.Objective, ref.Objective)
	}
	for j := range ref.X {
		if math.Abs(sol.X[j]-ref.X[j]) > 1e-6 {
			t.Errorf("x[%d] = %g, dense oracle %g", j, sol.X[j], ref.X[j])
		}
	}
}

// TestBuildCSCSumsDuplicates: repeated (row, variable) entries reach the
// column-major matrix summed in declaration order, as the dense oracle's raw
// rows sum them, with each column's rows strictly ascending; an entry that
// sums to zero stays as an explicit zero, and the slack and artificial
// columns follow the structural ones.
func TestBuildCSCSumsDuplicates(t *testing.T) {
	p := NewProblem()
	for j := 0; j < 3; j++ {
		p.AddVariable(fmt.Sprintf("x%d", j), 0, 10, 1)
	}
	p.AddConstraint("a", []Entry{{0, 1}, {2, -1}, {0, 2.5}, {0, 0.1}}, LE, 4)
	p.AddConstraint("b", []Entry{{1, 3}, {0, 0.1}, {1, 0.2}, {0, 0.3}}, GE, 2)
	p.AddConstraint("c", []Entry{{2, 1}, {1, 7}, {2, -1}}, EQ, 3)
	s, err := newSimplex(p, Options{}, new(workspace))
	if err != nil {
		t.Fatal(err)
	}
	mat := buildCSC(s)
	if len(mat.ptr) != s.n+1 {
		t.Fatalf("%d column pointers for %d columns", len(mat.ptr), s.n)
	}
	raw := make([][]float64, s.m)
	for i := range raw {
		raw[i] = make([]float64, s.n)
		s.rawRow(i, raw[i])
	}
	for j := 0; j < s.n; j++ {
		want := 0
		for i := range raw {
			if raw[i][j] != 0 || j == 2 && i == 2 {
				want++
			}
		}
		if got := int(mat.ptr[j+1] - mat.ptr[j]); got != want {
			t.Errorf("column %d holds %d entries, want %d", j, got, want)
		}
		for k := mat.ptr[j]; k < mat.ptr[j+1]; k++ {
			i := mat.idx[k]
			if k > mat.ptr[j] && i <= mat.idx[k-1] {
				t.Errorf("column %d lists row %d after row %d", j, i, mat.idx[k-1])
			}
			if math.Float64bits(mat.val[k]) != math.Float64bits(raw[i][j]) {
				t.Errorf("column %d row %d = %v, raw row %v", j, i, mat.val[k], raw[i][j])
			}
		}
	}
}
