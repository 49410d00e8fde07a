package lp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// cloneProblem returns a deep copy of p with an empty workspace.
func cloneProblem(p *Problem) *Problem {
	q := &Problem{Variables: slices.Clone(p.Variables)}
	for _, c := range p.Constraints {
		q.Constraints = append(q.Constraints, Constraint{Name: c.Name, Row: slices.Clone(c.Row), Sense: c.Sense, RHS: c.RHS})
	}
	return q
}

// cloneFactor returns a deep copy of f for problem q, carried by one Basis.
func cloneFactor(f *basisFactor, q *Problem) *basisFactor {
	g := &basisFactor{
		prob: q,
		mat:  cscMatrix{ptr: slices.Clone(f.mat.ptr), idx: slices.Clone(f.mat.idx), val: slices.Clone(f.mat.val)},
		lu: &etaFile{
			rowOf: slices.Clone(f.lu.rowOf), piv: slices.Clone(f.lu.piv), start: slices.Clone(f.lu.start),
			idx: slices.Clone(f.lu.idx), val: slices.Clone(f.lu.val),
		},
		rows: slices.Clone(f.rows),
	}
	g.refs.Store(1)
	return g
}

// cancelAfter is a context whose Err reports Canceled from its after-th
// call on, so a solve stops at the same poll on every run.
type cancelAfter struct {
	context.Context
	calls, after int
}

func (c *cancelAfter) Done() <-chan struct{} { return make(chan struct{}) }

func (c *cancelAfter) Err() error {
	c.calls++
	if c.calls >= c.after {
		return context.Canceled
	}
	return nil
}

// reuseCounts is what a reuse run covered.
type reuseCounts struct {
	cold, adopted, factorless, fallback, cancelled, infeasible int
	reexports, handbacks, grown                                int
}

// liveBasis is a basis a reuse run may warm-start from: the bounds it was
// optimal under and its solution there.
type liveBasis struct {
	b            *Basis
	x            []float64
	lower, upper map[int]float64
}

// reuseRun drives one sequence of solves of one Problem, so each solve finds
// the workspace the earlier ones left, and holds every solve against the
// same solve of a fresh deep copy with an empty workspace.
type reuseRun struct {
	t    *testing.T
	p    *Problem
	rng  *rand.Rand
	live []liveBasis
	// pristine is a deep copy, taken at export, of the factorization each
	// exported Basis carried: a reference solve adopts a copy of it, for
	// its own Problem, so a later solve that overwrote the arena cannot
	// hide it.
	pristine map[*Basis]*basisFactor
	n        *reuseCounts
	what     string
}

// solve runs opts on r.p and on a fresh copy of it, under a context that
// fires from its cancel-th poll (never when zero), and fails unless the two
// agree bit for bit in X and Objective and exactly in Status, Iterations,
// Refactorizations, PeakEta, WarmStarted and the exported Basic and Status.
func (r *reuseRun) solve(step string, opts Options, cancel int) *Solution {
	r.t.Helper()
	ctx := func() context.Context {
		if cancel == 0 {
			return context.Background()
		}
		return &cancelAfter{Context: context.Background(), after: cancel}
	}
	q := cloneProblem(r.p)
	ref := opts
	if b := opts.WarmBasis; b != nil && b.factor.Load() != nil {
		f, ok := r.pristine[b]
		if !ok {
			r.t.Fatalf("%s: %s: warm basis not exported by this run", r.what, step)
		}
		ref.WarmBasis = &Basis{Basic: b.Basic, Status: b.Status, luEntries: b.luEntries}
		ref.WarmBasis.factor.Store(cloneFactor(f, q))
	}
	got, err := SolveCtx(ctx(), r.p, opts)
	if err != nil {
		r.t.Fatalf("%s: %s: %v", r.what, step, err)
	}
	want, err := SolveCtx(ctx(), q, ref)
	if err != nil {
		r.t.Fatalf("%s: %s: fresh copy: %v", r.what, step, err)
	}
	if d := solutionDiff(got, want); d != "" || got.Refactorizations != want.Refactorizations {
		r.t.Fatalf("%s: %s: warm workspace vs fresh copy: %s (refactorizations %d vs %d)",
			r.what, step, d, got.Refactorizations, want.Refactorizations)
	}
	if got.Basis != nil {
		if f := got.Basis.factor.Load(); f != nil {
			r.pristine[got.Basis] = cloneFactor(f, nil)
		}
	}
	switch {
	case got.Status == StatusCancelled:
		r.n.cancelled++
	case got.Status == StatusInfeasible:
		r.n.infeasible++
	}
	switch b := opts.WarmBasis; {
	case b == nil:
		r.n.cold++
	case !got.WarmStarted:
		r.n.fallback++
	case b.factor.Load() != nil:
		r.n.adopted++
		if got.Basis != nil && got.Basis.factor.Load() == b.factor.Load() {
			r.n.reexports++
		}
	default:
		r.n.factorless++
	}
	return got
}

// push keeps sol's basis, optimal under lower and upper, for later steps.
func (r *reuseRun) push(sol *Solution, lower, upper map[int]float64) {
	if sol.Status == StatusOptimal && sol.Basis != nil {
		r.live = append(r.live, liveBasis{sol.Basis, sol.X, lower, upper})
	}
}

// child returns the bounds of a child of lb: one variable moved one unit
// off its value, as a branch does, so lb's basis is a warm start the dual
// must repair. ok is false when no variable picked can move.
func (r *reuseRun) child(lb liveBasis) (lower, upper map[int]float64, ok bool) {
	n := len(r.p.Variables)
	for try := 0; try < n; try++ {
		j := r.rng.Intn(n)
		lo, up := Options{LowerOverride: lb.lower, UpperOverride: lb.upper}.bounds(j, r.p.Variables[j])
		switch x := lb.x[j]; {
		case x+1 <= up:
			return copyWithBound(lb.lower, j, x+1), lb.upper, true
		case x-1 >= lo:
			return lb.lower, copyWithBound(lb.upper, j, x-1), true
		}
	}
	return nil, nil, false
}

// releaseAt releases the live basis at index k and forgets it, counting a
// hand-back when the workspace keeps more factor arenas afterwards.
func (r *reuseRun) releaseAt(k int) {
	before := 0
	if ws := r.p.ws.Load(); ws != nil {
		before = len(ws.factors)
	}
	r.live[k].b.Release()
	if ws := r.p.ws.Load(); ws != nil && len(ws.factors) > before {
		r.n.handbacks++
	}
	r.live = slices.Delete(r.live, k, k+1)
}

// op runs one step of a reuse sequence; every step reads the newest live
// basis, so a sequence builds chains as a dive does.
//
//	c  cold solve under the problem's own bounds
//	w  warm child of the newest basis, adopting the factor it carries
//	f  the same child from the factor-less copy of the newest basis
//	z  warm solve from the newest basis under its own bounds: no pivot,
//	   so it exports the factorization it adopted
//	p  release the basis below the newest (after z: its parent)
//	r  release the newest basis
//	x  warm child of the newest basis, cancelled at its second context
//	   poll (the dual polls first at its first pivot), and a cold solve
//	   cancelled at one of its first four polls
//	i  infeasible children of the newest basis: every variable fixed at its
//	   value but one, fixed a unit off; and a domain emptied by the overrides
//	j  rejected warm starts: the newest basis minus a row, and the newest
//	   basis with a nonbasic column's finite bound removed, which often
//	   leaves it dual-infeasible
//	g  grow the problem by one constraint (every basis so far goes stale)
func (r *reuseRun) op(c byte) {
	var top liveBasis
	if len(r.live) > 0 {
		top = r.live[len(r.live)-1]
	} else if c != 'c' && c != 'g' {
		c = 'c'
	}
	switch c {
	case 'c':
		r.push(r.solve("cold", Options{}, 0), nil, nil)
	case 'w', 'f', 'x':
		lower, upper, ok := r.child(top)
		if !ok {
			return
		}
		opts := Options{LowerOverride: lower, UpperOverride: upper, WarmBasis: top.b}
		switch c {
		case 'w':
			r.push(r.solve("warm child", opts, 0), lower, upper)
		case 'f':
			opts.WarmBasis = top.b.WithoutFactor()
			r.push(r.solve("factor-less child", opts, 0), lower, upper)
		case 'x':
			r.solve("cancelled warm child", opts, 2)
			r.solve("cancelled cold solve", Options{}, 1+r.rng.Intn(4))
		}
	case 'z':
		r.push(r.solve("zero-pivot re-export", Options{LowerOverride: top.lower, UpperOverride: top.upper, WarmBasis: top.b}, 0), top.lower, top.upper)
	case 'p':
		if len(r.live) >= 2 {
			r.releaseAt(len(r.live) - 2)
		}
	case 'r':
		r.releaseAt(len(r.live) - 1)
	case 'i':
		n := len(r.p.Variables)
		lower, upper := map[int]float64{}, map[int]float64{}
		off := r.rng.Intn(n)
		for j, x := range top.x {
			if j == off {
				x++
			}
			lower[j], upper[j] = x, x
		}
		r.solve("fixed off its value", Options{LowerOverride: lower, UpperOverride: upper, WarmBasis: top.b}, 0)
		r.solve("empty domain", Options{LowerOverride: map[int]float64{off: 1}, UpperOverride: map[int]float64{off: 0}}, 0)
	case 'j':
		short := &Basis{Basic: top.b.Basic[:len(top.b.Basic)-1], Status: top.b.Status}
		r.solve("incompatible basis", Options{WarmBasis: short}, 0)
		for j, st := range top.b.Status[:len(r.p.Variables)] {
			lo, up := Options{LowerOverride: top.lower, UpperOverride: top.upper}.bounds(j, r.p.Variables[j])
			if st == BasisAtLower && !math.IsInf(up, 1) && lo != up {
				opts := Options{LowerOverride: copyWithBound(top.lower, j, math.Inf(-1)), UpperOverride: top.upper, WarmBasis: top.b}
				r.solve("lower bound removed", opts, 0)
				break
			}
		}
	case 'g':
		// A copy of row 0 with room, so the optimum may stay, but the
		// column count of every solver form grows by one slack.
		c0 := r.p.Constraints[0]
		sense, rhs := c0.Sense, c0.RHS
		switch sense {
		case GE:
			rhs--
		default:
			sense, rhs = LE, rhs+1
		}
		r.p.AddConstraint("grown", c0.Row, sense, rhs)
		for len(r.live) > 0 {
			r.releaseAt(len(r.live) - 1)
		}
		r.n.grown++
	}
}

// reuseTrial runs the op sequence ops over one seeded degenerate LP.
func reuseTrial(t *testing.T, seed int64, nVars, nCons int, ops string, n *reuseCounts) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := degenerateLP(rng, nVars, nCons)
	if len(p.Constraints) == 0 {
		return
	}
	r := &reuseRun{t: t, p: p, rng: rng, pristine: map[*Basis]*basisFactor{}, n: n,
		what: fmt.Sprintf("seed %d (%d vars, %d rows)", seed, nVars, len(p.Constraints))}
	for k := 0; k < len(ops); k++ {
		r.what = fmt.Sprintf("seed %d (%d vars, %d rows) op %d %q", seed, nVars, len(p.Constraints), k, ops[k])
		r.op(ops[k])
	}
}

// reuseProgram covers every case the workspace meets: a cold root, adopted
// and factor-less children, a dive-shaped chain with each step released
// once the next is solved, cancelled and infeasible solves, rejected warm
// starts, a zero-pivot re-export followed by the hand-back of its parent
// and more children adopting the factor they now share alone, and a grown
// problem.
const reuseProgram = "cwwpfrjxiczpwrwwprrcwgcwwrfz"

// TestWorkspaceReuse: a solve's result does not depend on what earlier
// solves of its Problem left in the workspace. On seeded degenerate LPs,
// every solve of reuseProgram matches the same solve of a fresh deep copy
// (warm starts adopting a deep copy of the factorization the Basis carried
// when it was exported) in the bits of X and Objective and in Status,
// Iterations, Refactorizations, PeakEta, WarmStarted and the exported
// basis. A buffer trusted dirty, or a factor arena recycled while a Basis or
// a running solve still reads it, fails it. Every case must occur, and
// released factors must reach the workspace.
func TestWorkspaceReuse(t *testing.T) {
	var n reuseCounts
	for seed := int64(1); seed <= 150; seed++ {
		reuseTrial(t, seed, 4+int(seed%13), 3+int(seed%11), reuseProgram, &n)
	}
	for seed := int64(151); seed <= 160; seed++ {
		reuseTrial(t, seed, 6+int(seed%15), 65+int(seed*37%96), reuseProgram, &n)
	}
	t.Logf("%+v", n)
	if n.cold == 0 || n.adopted == 0 || n.factorless == 0 || n.fallback == 0 || n.cancelled == 0 ||
		n.infeasible == 0 || n.reexports == 0 || n.handbacks == 0 || n.grown == 0 {
		t.Errorf("a case never occurred: %+v", n)
	}
}

// FuzzWorkspaceReuse is TestWorkspaceReuse over fuzzed LPs and fuzzed op
// sequences (each byte picks an op of reuseRun.op).
func FuzzWorkspaceReuse(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(4), []byte(reuseProgram))
	f.Add(int64(7), uint8(16), uint8(13), []byte("cwzpwwrrcw"))
	f.Add(int64(11), uint8(14), uint8(99), []byte("cwwwxzpiwjg"))
	f.Fuzz(func(t *testing.T, seed int64, nVars, nCons uint8, raw []byte) {
		const letters = "cwfzprxijg"
		ops := make([]byte, 0, 48)
		for _, b := range raw[:min(len(raw), 48)] {
			ops = append(ops, letters[int(b)%len(letters)])
		}
		var n reuseCounts
		reuseTrial(t, seed, 1+int(nVars%24), 1+int(nCons%160), string(ops), &n)
	})
}

// TestWarmChildAllocations pins the reuse: a warm, factor-adopting child
// solve of a branch-and-bound shape, through a Problem whose workspace
// earlier solves warmed, with its exported factor released as the search
// does, allocates only what it returns: the Solution, X, and the Basis with
// its Basic, Status and carried factorization.
func TestWarmChildAllocations(t *testing.T) {
	p := branchProblem()
	root := solveOrFatal(t, p, Options{})
	opts := Options{UpperOverride: map[int]float64{0: 2}, WarmBasis: root.Basis}
	var sol *Solution
	allocs := testing.AllocsPerRun(50, func() {
		sol, _ = SolveCtx(context.Background(), p, opts)
		sol.Basis.Release()
	})
	if !sol.WarmStarted || sol.Iterations == 0 || sol.Refactorizations == 0 {
		t.Fatalf("the child is not the pivoting warm solve measured: %+v", sol)
	}
	t.Logf("%v allocations per warm child solve", allocs)
	if want := 6.0; allocs > want {
		t.Errorf("warm child solve allocates %v times, want at most %v", allocs, want)
	}
}

// TestReleaseRacesWarmStarts: one shared Basis seeds concurrent warm solves
// while another goroutine releases it, under -race. Each solve adopts the
// carried factor or, if the release came first, rebuilds it; either way it
// matches the sequential solve bit for bit.
func TestReleaseRacesWarmStarts(t *testing.T) {
	p := branchProblem()
	branches := []Options{
		{UpperOverride: map[int]float64{0: 2}},
		{LowerOverride: map[int]float64{0: 4}},
		{UpperOverride: map[int]float64{1: 3}, LowerOverride: map[int]float64{0: 1}},
		{UpperOverride: map[int]float64{2: 1}},
		{},
	}
	want := make([]*Solution, len(branches))
	root := solveOrFatal(t, p, Options{})
	for i, o := range branches {
		o.WarmBasis = root.Basis
		want[i] = solveOrFatal(t, p, o)
	}
	for round := 0; round < 20; round++ {
		root := solveOrFatal(t, p, Options{})
		got := make([]*Solution, len(branches))
		var wg sync.WaitGroup
		for i, o := range branches {
			o.WarmBasis = root.Basis
			wg.Add(1)
			go func(i int, o Options) {
				defer wg.Done()
				got[i], _ = SolveCtx(context.Background(), p, o)
				got[i].Basis.Release()
			}(i, o)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			root.Basis.Release()
		}()
		wg.Wait()
		for i := range branches {
			if d := solutionDiff(got[i], want[i]); d != "" {
				t.Fatalf("round %d branch %d: concurrent with the release vs sequential: %s", round, i, d)
			}
		}
	}
}
