package lp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// branchProblem is a small MILP-relaxation-shaped LP used by the warm-start
// tests: the optimum moves when a bound tightens, like a branch-and-bound
// child node.
func branchProblem() *Problem {
	p := NewProblem()
	x := p.AddVariable("x", 0, 10, -3)
	y := p.AddVariable("y", 0, 10, -2)
	z := p.AddVariable("z", 0, 10, -4)
	p.AddConstraint("c1", []Entry{{x, 1}, {y, 1}, {z, 1}}, LE, 12)
	p.AddConstraint("c2", []Entry{{x, 2}, {y, 1}}, LE, 14)
	p.AddConstraint("c3", []Entry{{y, 1}, {z, 3}}, LE, 15)
	return p
}

func TestWarmStartMatchesColdAfterBoundChange(t *testing.T) {
	p := branchProblem()
	root := solveOrFatal(t, p, Options{})
	if root.Status != StatusOptimal {
		t.Fatalf("root status = %v", root.Status)
	}
	if root.Basis == nil {
		t.Fatal("optimal solve exported no basis")
	}
	if root.WarmStarted {
		t.Error("cold solve reported WarmStarted")
	}

	// Branch: tighten x like a floor/ceil split would.
	for _, ov := range []Options{
		{UpperOverride: map[int]float64{0: 2}},
		{LowerOverride: map[int]float64{0: 4}},
		{UpperOverride: map[int]float64{1: 3}, LowerOverride: map[int]float64{0: 1}},
	} {
		cold := solveOrFatal(t, p, ov)
		warmOpts := ov
		warmOpts.WarmBasis = root.Basis
		warm := solveOrFatal(t, p, warmOpts)
		if !warm.WarmStarted {
			t.Errorf("%+v: warm basis rejected", ov)
		}
		if warm.Status != cold.Status {
			t.Fatalf("%+v: warm status %v != cold %v", ov, warm.Status, cold.Status)
		}
		if !approx(warm.Objective, cold.Objective) {
			t.Errorf("%+v: warm objective %g != cold %g", ov, warm.Objective, cold.Objective)
		}
		for j := range cold.X {
			if warm.X[j] != cold.X[j] {
				t.Errorf("%+v: X[%d]: warm %v != cold %v", ov, j, warm.X[j], cold.X[j])
			}
		}
		checkFeasible(t, p, warm.X)
	}
}

func TestWarmStartDetectsInfeasibleChild(t *testing.T) {
	p := branchProblem()
	root := solveOrFatal(t, p, Options{})
	// x + y + z <= 12 makes lower bounds summing past 12 infeasible.
	sol := solveOrFatal(t, p, Options{
		LowerOverride: map[int]float64{0: 6, 1: 5, 2: 4},
		WarmBasis:     root.Basis,
	})
	if sol.Status != StatusInfeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

// TestWarmStartContradictoryBounds checks the solve of a subproblem whose
// overrides put a lower bound above its upper one, cold and warm: it is
// infeasible at once, with all-zero X, zero counters, no basis and no warm
// start.
func TestWarmStartContradictoryBounds(t *testing.T) {
	p := branchProblem()
	root := solveOrFatal(t, p, Options{})
	for _, warm := range []*Basis{nil, root.Basis} {
		sol := solveOrFatal(t, p, Options{
			LowerOverride: map[int]float64{0: 7},
			UpperOverride: map[int]float64{0: 3},
			WarmBasis:     warm,
		})
		if sol.Status != StatusInfeasible {
			t.Fatalf("warm=%v: status = %v, want infeasible", warm != nil, sol.Status)
		}
		if sol.WarmStarted {
			t.Errorf("warm=%v: trivially infeasible subproblem reported WarmStarted", warm != nil)
		}
		if len(sol.X) != len(p.Variables) {
			t.Errorf("warm=%v: len(X) = %d, want %d", warm != nil, len(sol.X), len(p.Variables))
		}
		for j, x := range sol.X {
			if x != 0 {
				t.Errorf("warm=%v: X[%d] = %g, want 0", warm != nil, j, x)
			}
		}
		if sol.Iterations != 0 || sol.Refactorizations != 0 || sol.PeakEta != 0 || sol.Objective != 0 || sol.Basis != nil {
			t.Errorf("warm=%v: solution %+v, want zero counters, objective and basis", warm != nil, sol)
		}
	}
}

func TestStaleBasisFallsBackCold(t *testing.T) {
	p := branchProblem()
	// A basis from a different problem shape must be rejected, not crash.
	other := NewProblem()
	other.AddVariable("a", 0, 1, 1)
	other.AddConstraint("c", []Entry{{0, 1}}, LE, 1)
	osol := solveOrFatal(t, other, Options{})
	if osol.Basis == nil {
		t.Fatal("no basis from helper problem")
	}
	sol := solveOrFatal(t, p, Options{WarmBasis: osol.Basis})
	if sol.WarmStarted {
		t.Error("incompatible basis accepted")
	}
	cold := solveOrFatal(t, p, Options{})
	if !approx(sol.Objective, cold.Objective) {
		t.Errorf("fallback objective %g != cold %g", sol.Objective, cold.Objective)
	}
	// A nonbasic column with a status outside the four roles is rejected too.
	status := append([]BasisStatus(nil), cold.Basis.Status...)
	for j, st := range status {
		if st != BasisBasic {
			status[j] = BasisBasic + 1
			break
		}
	}
	if sol := solveOrFatal(t, p, Options{WarmBasis: &Basis{Basic: cold.Basis.Basic, Status: status}}); sol.WarmStarted {
		t.Error("basis with an out-of-range status accepted")
	}
}

func TestWarmStartSkipsPhase1Work(t *testing.T) {
	// A problem that needs phase-1 artificials cold: equality constraints.
	p := NewProblem()
	x := p.AddVariable("x", 0, 20, 1)
	y := p.AddVariable("y", 0, 20, 2)
	z := p.AddVariable("z", 0, 20, 3)
	p.AddConstraint("s", []Entry{{x, 1}, {y, 1}, {z, 1}}, EQ, 18)
	p.AddConstraint("d", []Entry{{x, 1}, {y, -1}}, GE, 2)
	root := solveOrFatal(t, p, Options{})
	if root.Basis == nil {
		t.Fatal("no root basis")
	}
	warm := solveOrFatal(t, p, Options{
		UpperOverride: map[int]float64{0: 9},
		WarmBasis:     root.Basis,
	})
	cold := solveOrFatal(t, p, Options{UpperOverride: map[int]float64{0: 9}})
	if !warm.WarmStarted {
		t.Fatal("warm basis rejected")
	}
	if warm.Status != StatusOptimal || !approx(warm.Objective, cold.Objective) {
		t.Fatalf("warm %v/%g vs cold %v/%g", warm.Status, warm.Objective, cold.Status, cold.Objective)
	}
	if warm.Iterations >= cold.Iterations+root.Iterations {
		t.Errorf("warm start saved nothing: warm %d pivots, cold %d", warm.Iterations, cold.Iterations)
	}
}

// TestPivotRulesOnDegenerateLP: the pricing rules — Dantzig, with the
// Bland fallback that anti-cycling switches to on degenerate runs — must reach
// the documented optimum of degenerate LPs (the Beale cycling example, a
// flat-objective face, a degenerate transportation corner) and return the
// bit-identical vertex when rerun.
func TestPivotRulesOnDegenerateLP(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Problem
		obj   float64
	}{
		{
			// Beale's cycling example; optimum -0.05 at z = 1.
			name: "beale",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddVariable("x", 0, Infinity, -0.75)
				y := p.AddVariable("y", 0, Infinity, 150)
				z := p.AddVariable("z", 0, Infinity, -0.02)
				w := p.AddVariable("w", 0, Infinity, 6)
				p.AddConstraint("r1", []Entry{{x, 0.25}, {y, -60}, {z, -0.04}, {w, 9}}, LE, 0)
				p.AddConstraint("r2", []Entry{{x, 0.5}, {y, -90}, {z, -0.02}, {w, 3}}, LE, 0)
				p.AddConstraint("r3", []Entry{{z, 1}}, LE, 1)
				return p
			},
			obj: -0.05,
		},
		{
			// min -(x+y) on x+y <= 4 with 0 <= x,y <= 4: the whole segment
			// x+y=4 is optimal; the canonical vertex is the lex-least one,
			// x=0, y=4.
			name: "flat-face",
			build: func() *Problem {
				p := NewProblem()
				x := p.AddVariable("x", 0, 4, -1)
				y := p.AddVariable("y", 0, 4, -1)
				p.AddConstraint("cap", []Entry{{x, 1}, {y, 1}}, LE, 4)
				return p
			},
			obj: -4,
		},
		{
			// Degenerate transportation corner: supply equals demand, many
			// alternate optimal bases.
			name: "transport",
			build: func() *Problem {
				p := NewProblem()
				costs := []float64{2, 3, 1, 5, 4, 8}
				for _, c := range costs {
					p.AddVariable("t", 0, Infinity, c)
				}
				p.AddConstraint("s0", []Entry{{0, 1}, {1, 1}, {2, 1}}, LE, 20)
				p.AddConstraint("s1", []Entry{{3, 1}, {4, 1}, {5, 1}}, LE, 30)
				p.AddConstraint("d0", []Entry{{0, 1}, {3, 1}}, GE, 10)
				p.AddConstraint("d1", []Entry{{1, 1}, {4, 1}}, GE, 25)
				p.AddConstraint("d2", []Entry{{2, 1}, {5, 1}}, GE, 15)
				return p
			},
			obj: 150,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.build()
			sol := solveOrFatal(t, p, Options{})
			if sol.Status != StatusOptimal {
				t.Fatalf("status %v", sol.Status)
			}
			if !approx(sol.Objective, tc.obj) {
				t.Errorf("objective %g, want %g", sol.Objective, tc.obj)
			}
			checkFeasible(t, p, sol.X)
			again := solveOrFatal(t, tc.build(), Options{})
			for j := range sol.X {
				if sol.X[j] != again.X[j] {
					t.Errorf("rerun X[%d] %v != %v", j, again.X[j], sol.X[j])
				}
			}
		})
	}
}

func TestFlatFaceCanonicalVertex(t *testing.T) {
	p := NewProblem()
	x := p.AddVariable("x", 0, 4, -1)
	y := p.AddVariable("y", 0, 4, -1)
	p.AddConstraint("cap", []Entry{{x, 1}, {y, 1}}, LE, 4)
	sol := solveOrFatal(t, p, Options{})
	if !approx(sol.X[x], 0) || !approx(sol.X[y], 4) {
		t.Errorf("canonical vertex (%g, %g), want lex-least (0, 4)", sol.X[x], sol.X[y])
	}
}

// TestWarmColdBitIdentical is the core determinism property behind the MILP
// layer's warm/cold byte-identity contract: solving a child problem from the
// parent basis returns the exact float64 vector of the cold solve.
func TestWarmColdBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 120; trial++ {
		nVars := 2 + rng.Intn(8)
		p, _ := randomFeasibleLP(rng, nVars, 1+rng.Intn(10))
		root, err := SolveCtx(context.Background(), p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if root.Status != StatusOptimal || root.Basis == nil {
			continue
		}
		// Simulated branch: tighten one variable's bound toward the middle.
		j := rng.Intn(nVars)
		v := p.Variables[j]
		mid := math.Floor((v.Lower + v.Upper) / 2)
		ov := Options{}
		if rng.Intn(2) == 0 {
			ov.UpperOverride = map[int]float64{j: mid}
		} else {
			ov.LowerOverride = map[int]float64{j: mid}
		}
		cold, err := SolveCtx(context.Background(), p, ov)
		if err != nil {
			t.Fatalf("trial %d cold: %v", trial, err)
		}
		warmOpts := ov
		warmOpts.WarmBasis = root.Basis
		warm, err := SolveCtx(context.Background(), p, warmOpts)
		if err != nil {
			t.Fatalf("trial %d warm: %v", trial, err)
		}
		if warm.Status != cold.Status {
			t.Fatalf("trial %d: warm %v != cold %v", trial, warm.Status, cold.Status)
		}
		if cold.Status != StatusOptimal {
			continue
		}
		for k := range cold.X {
			if warm.X[k] != cold.X[k] {
				t.Errorf("trial %d: X[%d] warm %v != cold %v (warmStarted=%v)",
					trial, k, warm.X[k], cold.X[k], warm.WarmStarted)
			}
		}
	}
}

// TestRefactorizationCounter pins the exact build count. A cold start builds
// once at setup; a warm start builds once at install from a factor-less
// basis and not at all from the factorization an exported basis carries; an
// optimal solve rebuilds before (and after) canonicalization only when a
// pivot or bound flip happened since the last build. On branchProblem neither
// descent moves, so every rebuild here is the one before canonicalization.
func TestRefactorizationCounter(t *testing.T) {
	p := branchProblem()
	cold := solveOrFatal(t, p, Options{})
	if cold.Basis == nil || cold.Basis.factor.Load() == nil {
		t.Fatal("optimal solve exported no factorization")
	}
	plain := &Basis{Basic: cold.Basis.Basic, Status: cold.Basis.Status}
	branch := map[int]float64{0: 2}
	for _, tc := range []struct {
		name       string
		opts       Options
		pivots     int
		refactored int
	}{
		// Setup build, two primal pivots, the rebuild they call for.
		{"cold", Options{}, 2, 2},
		// Adopted factor, two dual pivots, one rebuild.
		{"carried factor, branched", Options{UpperOverride: branch, WarmBasis: cold.Basis}, 2, 1},
		// Install build, the same two pivots, one rebuild.
		{"factor-less, branched", Options{UpperOverride: branch, WarmBasis: plain}, 2, 2},
		// Adopted factor already optimal: nothing moves, nothing is built.
		{"carried factor, unchanged", Options{WarmBasis: cold.Basis}, 0, 0},
		// Install build only.
		{"factor-less, unchanged", Options{WarmBasis: plain}, 0, 1},
	} {
		sol := solveOrFatal(t, p, tc.opts)
		if sol.Status != StatusOptimal || sol.WarmStarted != (tc.opts.WarmBasis != nil) {
			t.Fatalf("%s: status %v, warm started %v", tc.name, sol.Status, sol.WarmStarted)
		}
		if sol.Iterations != tc.pivots || sol.Refactorizations != tc.refactored {
			t.Errorf("%s: %d pivots, %d refactorizations; want %d, %d",
				tc.name, sol.Iterations, sol.Refactorizations, tc.pivots, tc.refactored)
		}
	}
}

// solutionDiff names the first field in which two solves differ bit for bit
// (X, Objective, Iterations, PeakEta, WarmStarted, the exported basis), or
// returns "" when they agree.
func solutionDiff(a, b *Solution) string {
	switch {
	case a.Status != b.Status:
		return fmt.Sprintf("status %v vs %v", a.Status, b.Status)
	case math.Float64bits(a.Objective) != math.Float64bits(b.Objective):
		return fmt.Sprintf("objective %v vs %v", a.Objective, b.Objective)
	case a.Iterations != b.Iterations:
		return fmt.Sprintf("iterations %d vs %d", a.Iterations, b.Iterations)
	case a.PeakEta != b.PeakEta:
		return fmt.Sprintf("peak eta %d vs %d", a.PeakEta, b.PeakEta)
	case a.WarmStarted != b.WarmStarted:
		return fmt.Sprintf("warm started %v vs %v", a.WarmStarted, b.WarmStarted)
	case (a.Basis == nil) != (b.Basis == nil):
		return "only one solve exported a basis"
	}
	if d := xDiff(a.X, b.X); d != "" {
		return d
	}
	if a.Basis != nil && (!reflect.DeepEqual(a.Basis.Basic, b.Basis.Basic) || !reflect.DeepEqual(a.Basis.Status, b.Basis.Status)) {
		return "exported bases differ"
	}
	return ""
}

// xDiff names the first solution coordinate that differs bit for bit.
func xDiff(a, b []float64) string {
	for k := range a {
		if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
			return fmt.Sprintf("X[%d] %v vs %v", k, a[k], b[k])
		}
	}
	return ""
}

// TestWarmFactorReuseBitIdentical: adopting the factorization an exported
// basis carries is exact. Along a dive-shaped chain — a root solve, then three
// bound fixings, each warm-started from the step before — the solve from the
// factor-carrying basis matches the solve from a factor-less copy bit for bit,
// and its X is the cold solve's. Adoption must really happen (one build fewer
// than the copy). A basis exported by another problem of the same shape but
// different coefficients must not lend its factorization: the solve matches
// the factor-less copy and that problem's own cold solve.
func TestWarmFactorReuseBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	adopted, foreignWarm := 0, 0
	for trial := 0; trial < 80; trial++ {
		nVars := 2 + rng.Intn(8)
		p, _ := randomFeasibleLP(rng, nVars, 1+rng.Intn(10))
		root := solveOrFatal(t, p, Options{})
		if root.Status != StatusOptimal || root.Basis == nil {
			continue
		}
		if root.Basis.factor.Load() == nil {
			t.Fatalf("trial %d: optimal sparse solve exported no factorization", trial)
		}

		// Another problem of the same shape: row i scaled by i+2, which keeps
		// the basis nonsingular and dual-feasible but changes the matrix.
		other := &Problem{Variables: p.Variables}
		for i, c := range p.Constraints {
			row := make([]Entry, len(c.Row))
			for k, e := range c.Row {
				row[k] = Entry{e.Var, e.Coef * float64(i+2)}
			}
			other.AddConstraint(c.Name, row, c.Sense, c.RHS*float64(i+2))
		}
		foreign := solveOrFatal(t, other, Options{WarmBasis: root.Basis})
		foreignPlain := solveOrFatal(t, other, Options{WarmBasis: &Basis{Basic: root.Basis.Basic, Status: root.Basis.Status}})
		if d := solutionDiff(foreign, foreignPlain); d != "" || foreign.Refactorizations != foreignPlain.Refactorizations {
			t.Errorf("trial %d: another problem's factorization was adopted: %s (refactorizations %d vs %d)",
				trial, d, foreign.Refactorizations, foreignPlain.Refactorizations)
		}
		if foreign.Status == StatusOptimal {
			if d := xDiff(foreign.X, solveOrFatal(t, other, Options{}).X); d != "" {
				t.Errorf("trial %d: other problem, warm vs its cold solve: %s", trial, d)
			}
		}
		if foreign.WarmStarted {
			foreignWarm++
		}

		lower, upper := map[int]float64{}, map[int]float64{}
		b, x := root.Basis, root.X
		for step := 0; step < 3; step++ {
			// Fix one variable at its rounded value, as the milp dive does.
			j := rng.Intn(nVars)
			v := math.Round(x[j])
			lower, upper = copyWithBound(lower, j, v), copyWithBound(upper, j, v)
			carried := solveOrFatal(t, p, Options{LowerOverride: lower, UpperOverride: upper, WarmBasis: b})
			plain := solveOrFatal(t, p, Options{LowerOverride: lower, UpperOverride: upper,
				WarmBasis: &Basis{Basic: b.Basic, Status: b.Status}})
			if d := solutionDiff(carried, plain); d != "" {
				t.Fatalf("trial %d step %d: carried factor vs factor-less copy: %s", trial, step, d)
			}
			builds := plain.Refactorizations
			if carried.WarmStarted {
				builds-- // the install build the carried factor replaces
				adopted++
			}
			if carried.Refactorizations != builds {
				t.Errorf("trial %d step %d: %d refactorizations from the carried factor, want %d",
					trial, step, carried.Refactorizations, builds)
			}
			if carried.Status != StatusOptimal {
				break
			}
			cold := solveOrFatal(t, p, Options{LowerOverride: lower, UpperOverride: upper})
			if d := xDiff(carried.X, cold.X); d != "" {
				t.Errorf("trial %d step %d: warm vs cold: %s", trial, step, d)
			}
			if carried.Basis == nil {
				break
			}
			b, x = carried.Basis, carried.X
		}
	}
	if adopted < 150 || foreignWarm < 60 {
		t.Fatalf("only %d adopted factorizations and %d warm starts on another problem: the test lost its teeth",
			adopted, foreignWarm)
	}
}

// TestCarriedFactorSharedAcrossConcurrentSolves: one exported Basis may seed
// many concurrent solves, and each adopts the same carried factorization and
// matrix. Those stay read-only: every concurrent solve matches its sequential
// twin bit for bit (run under -race to check the sharing itself).
func TestCarriedFactorSharedAcrossConcurrentSolves(t *testing.T) {
	p := branchProblem()
	root := solveOrFatal(t, p, Options{})
	branches := []Options{
		{UpperOverride: map[int]float64{0: 2}},
		{LowerOverride: map[int]float64{0: 4}},
		{UpperOverride: map[int]float64{1: 3}, LowerOverride: map[int]float64{0: 1}},
		{UpperOverride: map[int]float64{2: 1}},
		{},
	}
	want := make([]*Solution, len(branches))
	for i, o := range branches {
		o.WarmBasis = root.Basis
		want[i] = solveOrFatal(t, p, o)
	}
	got := make([]*Solution, len(branches))
	var wg sync.WaitGroup
	for i, o := range branches {
		o.WarmBasis = root.Basis
		wg.Add(1)
		go func(i int, o Options) {
			defer wg.Done()
			got[i], _ = SolveCtx(context.Background(), p, o)
		}(i, o)
	}
	wg.Wait()
	for i := range branches {
		if got[i] == nil {
			t.Fatalf("branch %d: solve failed", i)
		}
		if !got[i].WarmStarted {
			t.Errorf("branch %d: carried basis rejected", i)
		}
		if d := solutionDiff(got[i], want[i]); d != "" || got[i].Refactorizations != want[i].Refactorizations {
			t.Errorf("branch %d: concurrent vs sequential: %s (refactorizations %d vs %d)",
				i, d, got[i].Refactorizations, want[i].Refactorizations)
		}
	}
}

func copyWithBound(src map[int]float64, j int, v float64) map[int]float64 {
	out := make(map[int]float64, len(src)+1)
	for k, w := range src {
		out[k] = w
	}
	out[j] = v
	return out
}
