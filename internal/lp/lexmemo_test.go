package lp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// restartLexCanonicalize is the canonicalization pass without lexMemo: every
// scan restarts at column 0 and recomputes every candidate it meets. It is the
// reference the memoised pass must match bit for bit.
func restartLexCanonicalize(s *simplex) {
	maxMoves := 4 * (s.m + s.n)
	if maxMoves < 64 {
		maxMoves = 64
	}
	s.lexPivoting = true
	for moves := 0; moves < maxMoves; moves++ {
		enter, dir, leaveRow, bound, step := restartFindLexDescent(s)
		if enter < 0 {
			break
		}
		s.iterations++
		if leaveRow < 0 {
			s.applyBoundFlip(enter, dir, step, s.colBuf)
		} else {
			s.core.pivotRow(leaveRow, s.prowBuf)
			s.pivot(enter, dir, leaveRow, bound, step, s.colBuf)
		}
	}
	s.lexPivoting = false
}

func restartFindLexDescent(s *simplex) (enter int, dir float64, leaveRow int, bound BasisStatus, step float64) {
	for j := 0; j < s.n; j++ {
		st := s.status[j]
		if st == BasisBasic || s.lower[j] == s.upper[j] {
			continue
		}
		if math.Abs(s.reduced[j]) > tol {
			continue
		}
		var dirs []float64
		switch st {
		case BasisAtLower:
			dirs = []float64{1}
		case BasisAtUpper:
			dirs = []float64{-1}
		case BasisFree:
			dirs = []float64{1, -1}
		}
		alpha := s.colBuf
		s.core.column(j, alpha)
		for _, d := range dirs {
			if !s.lexDescending(j, d, alpha) {
				continue
			}
			lr, b, stp, ok := s.ratioTest(j, d, alpha)
			if !ok {
				continue
			}
			if lr < 0 && stp <= tol {
				continue
			}
			return j, d, lr, b, stp
		}
	}
	return -1, 0, 0, BasisAtLower, 0
}

// restartSolve is SolveCtx with restartLexCanonicalize in place of the
// production pass, reporting what the comparison reads.
func restartSolve(p *Problem, opts Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if emptyBounds(p, opts) {
		return &Solution{Status: StatusInfeasible, X: make([]float64, len(p.Variables))}, nil
	}
	var s *simplex
	var status Status
	if opts.WarmBasis != nil {
		ws, err := newSimplexBase(p, opts, new(workspace))
		if err != nil {
			return nil, err
		}
		if ws.installBasis(opts.WarmBasis) {
			s = ws
			if status = s.runDual(); status == StatusOptimal {
				status = s.iterate()
			}
		}
	}
	if s == nil {
		var err error
		if s, err = newSimplex(p, opts, new(workspace)); err != nil {
			return nil, err
		}
		status = s.run()
	}
	if status == StatusOptimal {
		if !s.fresh {
			s.refactorize()
		}
		s.computeReducedCosts()
		restartLexCanonicalize(s)
		if !s.fresh {
			s.refactorize()
		}
	}
	sol := &Solution{Status: status, X: s.extract(), Iterations: s.iterations, Refactorizations: s.refactorizations}
	if status == StatusOptimal {
		sol.Basis = s.exportBasis()
	}
	return sol, nil
}

// countingCore counts the tableau columns its core computes whole and the
// ones it resumes, among those the resumes that cross more than one update
// eta and the ones that restore a value past row 63, outside the first word
// of the memo's bitset.
type countingCore struct {
	tableauCore
	n *columnCounts
}

// columnCounts is what a countingCore counts.
type columnCounts struct {
	whole, resumed, multi, wide int
}

func (c countingCore) column(j int, dst []float64) {
	c.n.whole++
	c.tableauCore.column(j, dst)
}

func (c countingCore) columnSince(j int, dst []float64, since int) {
	c.n.resumed++
	if c.stamp()-since > 1 {
		c.n.multi++
	}
	for _, a := range dst[min(64, len(dst)):] {
		if a != 0 {
			c.n.wide++
			break
		}
	}
	c.tableauCore.columnSince(j, dst, since)
}

// counted returns opts with its core (the sparse one unless opts already
// names the dense oracle) wrapped to count tableau columns into n.
func counted(opts Options, n *columnCounts) Options {
	base := opts.newCore
	if base == nil {
		base = func(s *simplex) tableauCore { return newSparseCore(s, buildCSC(s)) }
	}
	opts.newCore = func(s *simplex) tableauCore { return countingCore{base(s), n} }
	return opts
}

// degenerateLP builds a random LP with a large, highly degenerate optimal
// face: most costs are zero, and most constraints are tight at one integer
// point, which many bases share. Some variables are free, some fixed and some
// only 1e-10 wide, so the descent meets both scan directions, columns it must
// pass over, and columns whose only move is a bound flip too short to take.
func degenerateLP(rng *rand.Rand, nVars, nCons int) *Problem {
	p := NewProblem()
	point := make([]float64, nVars)
	for j := range point {
		lo := float64(rng.Intn(5) - 2)
		up := lo + float64(rng.Intn(4))
		cost := 0.0
		if rng.Intn(4) == 0 {
			cost = float64(rng.Intn(5) - 2)
		}
		switch rng.Intn(8) {
		case 0:
			lo, up, cost = math.Inf(-1), Infinity, 0
		case 1:
			up = Infinity
		case 2:
			lo = math.Inf(-1)
		case 3:
			up = lo + 1e-10 // a bound flip too short to count as a move
		}
		switch {
		case !math.IsInf(lo, -1) && (math.IsInf(up, 1) || rng.Intn(2) == 0):
			point[j] = lo
		case !math.IsInf(up, 1):
			point[j] = up
		default:
			point[j] = float64(rng.Intn(5) - 2)
		}
		p.AddVariable(fmt.Sprintf("x%d", j), lo, up, cost)
	}
	for i := 0; i < nCons; i++ {
		var row []Entry
		lhs := 0.0
		for j := range point {
			if rng.Intn(2) == 0 {
				coef := float64(rng.Intn(5) - 2)
				if coef == 0 {
					coef = 1
				}
				row = append(row, Entry{j, coef})
				lhs += coef * point[j]
			}
		}
		if len(row) == 0 {
			continue
		}
		room := 0.0
		if rng.Intn(4) == 0 {
			room = float64(1 + rng.Intn(2))
		}
		switch rng.Intn(3) {
		case 0:
			p.AddConstraint(fmt.Sprintf("c%d", i), row, LE, lhs+room)
		case 1:
			p.AddConstraint(fmt.Sprintf("c%d", i), row, GE, lhs-room)
		default:
			p.AddConstraint(fmt.Sprintf("c%d", i), row, EQ, lhs)
		}
	}
	return p
}

// lexMemoCounts sums what lexMemoTrial observed: the tableau columns the
// production pass and the restart scan computed, and the pivots of the warm
// runs.
type lexMemoCounts struct {
	memo, restart columnCounts
	warmPivots    int
}

// lexMemoMismatch solves p under opts with the production pass and with
// restartLexCanonicalize, each on a column-counting core, and describes the
// first difference in X, the basis, Iterations or Refactorizations ("" when
// they agree bit for bit). It adds both column counts to n and returns the
// production solve's Iterations.
func lexMemoMismatch(p *Problem, opts Options, n *lexMemoCounts) (diff string, iterations int, err error) {
	got, err := SolveCtx(context.Background(), p, counted(opts, &n.memo))
	if err != nil {
		return "", 0, err
	}
	want, err := restartSolve(p, counted(opts, &n.restart))
	if err != nil {
		return "", 0, err
	}
	switch {
	case got.Status != want.Status:
		return fmt.Sprintf("status %v, restart scan %v", got.Status, want.Status), got.Iterations, nil
	case got.Iterations != want.Iterations || got.Refactorizations != want.Refactorizations:
		return fmt.Sprintf("%d iterations and %d refactorizations, restart scan %d and %d",
			got.Iterations, got.Refactorizations, want.Iterations, want.Refactorizations), got.Iterations, nil
	case (got.Basis == nil) != (want.Basis == nil):
		return fmt.Sprintf("basis exported %v, restart scan %v", got.Basis != nil, want.Basis != nil), got.Iterations, nil
	}
	for k := range want.X {
		if math.Float64bits(got.X[k]) != math.Float64bits(want.X[k]) {
			return fmt.Sprintf("X[%d] = %v, restart scan %v", k, got.X[k], want.X[k]), got.Iterations, nil
		}
	}
	if want.Basis != nil {
		for i := range want.Basis.Basic {
			if got.Basis.Basic[i] != want.Basis.Basic[i] {
				return fmt.Sprintf("Basic[%d] = %d, restart scan %d", i, got.Basis.Basic[i], want.Basis.Basic[i]), got.Iterations, nil
			}
		}
	}
	return "", got.Iterations, nil
}

// lexMemoCases are the core and refactorization settings every comparison
// runs under: the sparse core at its default cadence, the sparse core
// rebuilding every two pivots (so lex pivots trigger rebuilds that permute
// rows), and the dense oracle.
var lexMemoCases = []struct {
	name string
	opts Options
}{
	{"sparse", Options{}},
	{"sparse/refactor2", Options{RefactorEvery: 2}},
	{"dense", denseOracle(Options{})},
}

// lexMemoTrial checks one seeded degenerate LP under every case: a cold
// solve, then a warm solve of a bound-tightened child from its basis (the
// branch-and-bound shape, reaching the descent through the dual simplex).
// The child moves one variable one unit off its value in a reference root
// solve, as a branch does, so the root basis is a warm start the dual must
// repair.
func lexMemoTrial(t *testing.T, seed int64, nVars, nCons int, n *lexMemoCounts) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := degenerateLP(rng, nVars, nCons)
	j := rng.Intn(nVars)
	ref, err := SolveCtx(context.Background(), p, Options{})
	if err != nil {
		t.Fatalf("seed %d reference: %v", seed, err)
	}
	var lower, upper map[int]float64
	if ref.Status == StatusOptimal {
		switch x, v := ref.X[j], p.Variables[j]; {
		case x+1 <= v.Upper:
			lower = map[int]float64{j: x + 1}
		case x-1 >= v.Lower:
			upper = map[int]float64{j: x - 1}
		}
	}
	for _, c := range lexMemoCases {
		root, err := SolveCtx(context.Background(), p, c.opts)
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, c.name, err)
		}
		runs := []Options{c.opts}
		if root.Basis != nil && (lower != nil || upper != nil) {
			warm := c.opts
			warm.LowerOverride, warm.UpperOverride, warm.WarmBasis = lower, upper, root.Basis
			runs = append(runs, warm)
		}
		for k, opts := range runs {
			diff, iterations, err := lexMemoMismatch(p, opts, n)
			if err != nil {
				t.Fatalf("seed %d %s run %d: %v", seed, c.name, k, err)
			}
			if diff != "" {
				t.Fatalf("seed %d %s run %d (%d vars, %d rows): %s", seed, c.name, k, nVars, len(p.Constraints), diff)
			}
			if k > 0 {
				n.warmPivots += iterations
			}
		}
	}
}

// TestLexMemoMatchesRestartScan: remembering rejected columns changes no
// result. On seeded degenerate LPs, cold and warm, on the sparse core (also
// with rebuilds inside the descent) and on the dense oracle, the production
// pass returns the restart scan's X, basis, Iterations and Refactorizations
// bit for bit — and computes fewer whole tableau columns, so the memo is
// exercised; it resumes columns across several update etas, past row 63
// too (the last block has 65 to 160 rows, so the memo's bitsets span two or
// three words); and the warm runs pivot, so the dual path is exercised too.
func TestLexMemoMatchesRestartScan(t *testing.T) {
	var n lexMemoCounts
	for seed := int64(1); seed <= 400; seed++ {
		lexMemoTrial(t, seed, 4+int(seed%13), 3+int(seed%11), &n)
	}
	for seed := int64(401); seed <= 420; seed++ {
		lexMemoTrial(t, seed, 6+int(seed%15), 65+int(seed*37%96), &n)
	}
	t.Logf("tableau columns: %d whole and %d resumed (%d across several update etas, %d past row 63) with the memo, %d with the restart scan; %d warm pivots",
		n.memo.whole, n.memo.resumed, n.memo.multi, n.memo.wide, n.restart.whole, n.warmPivots)
	if n.memo.whole >= n.restart.whole {
		t.Errorf("the memo saved no tableau column: %d vs %d", n.memo.whole, n.restart.whole)
	}
	if n.memo.multi == 0 {
		t.Errorf("no column resumed across more than one update eta: %+v", n.memo)
	}
	if n.memo.wide == 0 {
		t.Errorf("no resumed column held a value past row 63: %+v", n.memo)
	}
	if n.warmPivots == 0 {
		t.Error("no warm run pivoted; the warm comparison exercises nothing")
	}
}

// FuzzLexMemo is TestLexMemoMatchesRestartScan over fuzzed seeds and sizes,
// up to 160 rows so the memo's bitsets can span three words.
func FuzzLexMemo(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(4))
	f.Add(int64(7), uint8(16), uint8(13))
	f.Add(int64(11), uint8(14), uint8(99))
	f.Fuzz(func(t *testing.T, seed int64, nVars, nCons uint8) {
		var n lexMemoCounts
		lexMemoTrial(t, seed, 1+int(nVars%24), 1+int(nCons%160), &n)
	})
}
