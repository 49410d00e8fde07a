package lp

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// fullEtaFile is the eta file as it was before it went lean: every unit
// column of a factor gets an eta, +1 slacks included, and every eta also
// lists its own diagonal entry in idx/val, which FTRAN and BTRAN then skip.
// It is the reference the production etaFile must match bit for bit.
type fullEtaFile struct {
	rowOf []int32
	piv   []float64
	start []int32
	idx   []int32
	val   []float64
}

func (f *fullEtaFile) reset() {
	*f = fullEtaFile{start: []int32{0}}
}

func (f *fullEtaFile) count() int { return len(f.rowOf) }

func (f *fullEtaFile) pushDense(r int, v []float64) {
	f.rowOf = append(f.rowOf, int32(r))
	f.piv = append(f.piv, v[r])
	for i, x := range v {
		if i != r && math.Abs(x) <= etaDropTol {
			continue
		}
		f.idx = append(f.idx, int32(i))
		f.val = append(f.val, x)
	}
	f.start = append(f.start, int32(len(f.idx)))
}

func (f *fullEtaFile) pushUnit(r int, piv float64) {
	f.rowOf = append(f.rowOf, int32(r))
	f.piv = append(f.piv, piv)
	f.idx = append(f.idx, int32(r))
	f.val = append(f.val, piv)
	f.start = append(f.start, int32(len(f.idx)))
}

func (f *fullEtaFile) ftran(x []float64) {
	for e := 0; e < len(f.rowOf); e++ {
		r := f.rowOf[e]
		xr := x[r]
		if xr == 0 {
			continue
		}
		t := xr / f.piv[e]
		for k := f.start[e]; k < f.start[e+1]; k++ {
			if i := f.idx[k]; i != r {
				x[i] -= f.val[k] * t
			}
		}
		x[r] = t
	}
}

func (f *fullEtaFile) btran(y []float64) {
	for e := len(f.rowOf) - 1; e >= 0; e-- {
		r := f.rowOf[e]
		acc := 0.0
		for k := f.start[e]; k < f.start[e+1]; k++ {
			if i := f.idx[k]; i != r {
				acc += f.val[k] * y[i]
			}
		}
		y[r] = (y[r] - acc) / f.piv[e]
	}
}

// leanStats counts, over the factors the production core built, the basic
// artificial columns of each sign, so a test can tell that both kinds of
// unit eta were exercised, and the structural-column etas that pivot or
// store an entry past row 63, outside the first word of the build's row
// pattern, and the resumed columns held against a whole FTRAN.
type leanStats struct {
	plusArts, minusArts int
	wideEtas            int
	resumes             int // lex-pass columns resumed along the update chain
}

// fullCore is a test-only sparse core on the full eta file. The driver reads
// its answers; beside it, it runs the production core (lean) on the same
// calls and records in diff the first FTRAN or BTRAN output, row assignment,
// basic value or factor eta that differs from its own in any bit, the first
// lean eta that stores its diagonal or lists its rows out of ascending order,
// and the first lean factor with an eta for a +1 unit column.
type fullCore struct {
	lean    *sparseCore
	factor  fullEtaFile
	units   int // factor's leading etas, one per basic unit column
	updates fullEtaFile
	vecM    []float64 // length-m scratch for the lean core's answers
	vecN    []float64 // length-n scratch for the lean core's answers
	diff    *string
	stats   *leanStats
}

// withFullCore returns opts with a fullCore in place of the sparse core,
// reporting into diff and stats.
func withFullCore(opts Options, diff *string, stats *leanStats) Options {
	opts.newCore = func(s *simplex) tableauCore {
		c := &fullCore{
			lean:  newSparseCore(s, buildCSC(s)),
			vecM:  make([]float64, s.m),
			vecN:  make([]float64, s.n),
			diff:  diff,
			stats: stats,
		}
		c.updates.reset()
		return c
	}
	return opts
}

func (c *fullCore) fail(format string, args ...interface{}) {
	if *c.diff == "" {
		*c.diff = fmt.Sprintf(format, args...)
	}
}

// sameBits records a failure unless got and want are equal bit for bit.
func (c *fullCore) sameBits(what string, got, want []float64) {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			c.fail("%s[%d]: lean %v (%#x), full %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
			return
		}
	}
}

func (c *fullCore) ftran(x []float64) {
	c.factor.ftran(x)
	c.updates.ftran(x)
}

func (c *fullCore) btran(y []float64) {
	c.updates.btran(y)
	c.factor.btran(y)
}

func (c *fullCore) peakEta() int { return c.lean.peakEta() }

func (c *fullCore) column(j int, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	c.lean.scatterColumn(j, dst)
	c.ftran(dst)
	c.lean.column(j, c.vecM)
	c.sameBits(fmt.Sprintf("FTRAN of column %d", j), c.vecM, dst)
}

func (c *fullCore) stamp() int { return c.lean.stamp() }

// columnSince resumes the lean core's column j from dst, the values it had
// at stamp since, and holds the result against the full eta file's whole
// FTRAN of column j, which it leaves in dst. The two must agree bit for bit
// but for the sign of a zero: dst's unrecorded rows are +0 where a whole
// FTRAN may have left −0.
func (c *fullCore) columnSince(j int, dst []float64, since int) {
	c.stats.resumes++
	resumed := c.vecM
	copy(resumed, dst)
	c.lean.columnSince(j, resumed, since)
	for i := range dst {
		dst[i] = 0
	}
	c.lean.scatterColumn(j, dst)
	c.ftran(dst)
	for i, want := range dst {
		if got := resumed[i]; math.Float64bits(got) != math.Float64bits(want) && (got != 0 || want != 0) {
			c.fail("column %d resumed from update eta %d of %d, row %d: lean %v (%#x), full %v (%#x)",
				j, since, c.lean.stamp(), i, got, math.Float64bits(got), want, math.Float64bits(want))
			return
		}
	}
}

func (c *fullCore) pivotRow(r int, dst []float64) {
	c.lean.pivotRow(r, c.vecN)
	leanRho := c.lean.work
	rho := c.vecM
	for i := range rho {
		rho[i] = 0
	}
	rho[r] = 1
	c.btran(rho)
	c.sameBits(fmt.Sprintf("BTRAN of row %d", r), leanRho, rho)
	mat := &c.lean.mat
	for j := 0; j < c.lean.s.n; j++ {
		acc := 0.0
		for k := mat.ptr[j]; k < mat.ptr[j+1]; k++ {
			acc += mat.val[k] * rho[mat.idx[k]]
		}
		dst[j] = acc
	}
	c.sameBits(fmt.Sprintf("pivot row %d", r), c.vecN, dst)
}

func (c *fullCore) reducedCosts(cost []float64, dst []float64) {
	c.lean.reducedCosts(cost, c.vecN)
	s := c.lean.s
	y := c.vecM
	anyNonzero := false
	for i, j := range s.basis {
		y[i] = cost[j]
		if y[i] != 0 {
			anyNonzero = true
		}
	}
	if !anyNonzero {
		copy(dst, cost[:s.n])
		c.sameBits("reduced costs", c.vecN, dst)
		return
	}
	c.btran(y)
	c.sameBits("BTRAN of the basic costs", c.lean.work, y)
	mat := &c.lean.mat
	for j := 0; j < s.n; j++ {
		acc := 0.0
		for k := mat.ptr[j]; k < mat.ptr[j+1]; k++ {
			acc += mat.val[k] * y[mat.idx[k]]
		}
		dst[j] = cost[j] - acc
	}
	c.sameBits("reduced costs", c.vecN, dst)
}

func (c *fullCore) refactorize() bool {
	return c.rebuild(c.lean.refactorize())
}

func (c *fullCore) applyPivot(enter, leaveRow int, alpha []float64) bool {
	leanRebuilt := c.lean.applyPivot(enter, leaveRow, alpha)
	c.checkLean(&c.lean.updates, "update")
	c.updates.pushDense(leaveRow, alpha)
	if math.Abs(alpha[leaveRow]) < updateDriftTol || c.updates.count() >= c.lean.s.refresh {
		return c.rebuild(leanRebuilt)
	}
	if leanRebuilt {
		c.fail("lean core rebuilt after the pivot into row %d, full core did not", leaveRow)
	}
	return false
}

// rebuild builds the full factor for the basic set the lean core has just
// built for (leanOK reports whether it could), then holds the lean core's
// row assignment, basic values and factor against the full build's.
func (c *fullCore) rebuild(leanOK bool) bool {
	s := c.lean.s
	leanBasis := append([]int(nil), s.basis...)
	leanBeta := append([]float64(nil), s.beta...)
	ok := c.build()
	if ok != leanOK {
		c.fail("lean build succeeded %v, full build %v", leanOK, ok)
	}
	if !ok {
		return false
	}
	for i := range leanBasis {
		if s.basis[i] != leanBasis[i] {
			c.fail("row %d: lean build assigned column %d, full build %d", i, leanBasis[i], s.basis[i])
		}
	}
	c.sameBits("basic values", leanBeta, s.beta)
	c.checkLean(c.lean.factor, "factor")
	c.sameFactor()

	// FTRAN and BTRAN of a probe with ±0 entries through both factors.
	want, got := make([]float64, s.m), make([]float64, s.m)
	for _, solve := range []struct {
		name       string
		full, lean func([]float64)
	}{
		{"FTRAN", c.factor.ftran, c.lean.factor.ftran},
		{"BTRAN", c.factor.btran, c.lean.factor.btran},
	} {
		for i := range want {
			switch i % 4 {
			case 0:
				want[i] = math.Copysign(0, -1)
			case 1:
				want[i] = 0
			default:
				want[i] = float64(i%7) - 2.75
			}
		}
		copy(got, want)
		solve.full(want)
		solve.lean(got)
		c.sameBits(solve.name+" of the probe", got, want)
	}

	// The lean factor holds one eta per structural basic column and per
	// basic −1 artificial.
	etas := 0
	for j := 0; j < s.n; j++ {
		switch {
		case !c.lean.basicSet[j] || (j >= s.nStruct && j < s.artStart):
		case j < s.nStruct:
			etas++
		case s.artSign[j-s.artStart] < 0:
			etas++
			c.stats.minusArts++
		default:
			c.stats.plusArts++
		}
	}
	if n := c.lean.factor.count(); n != etas {
		c.fail("lean factor holds %d etas, want %d (structural basics and −1 artificials)", n, etas)
	}
	return true
}

// checkLean records a failure if an eta of f lists its own pivot row, or
// lists its rows other than strictly ascending.
func (c *fullCore) checkLean(f *etaFile, what string) {
	for e, r := range f.rowOf {
		for k := f.start[e]; k < f.start[e+1]; k++ {
			if f.idx[k] == r {
				c.fail("%s eta %d stores its diagonal at row %d", what, e, r)
			}
			if k > f.start[e] && f.idx[k] <= f.idx[k-1] {
				c.fail("%s eta %d lists row %d after row %d", what, e, f.idx[k], f.idx[k-1])
			}
		}
	}
}

// sameFactor records a failure unless the lean factor holds, in order, the
// full factor's etas less the identity etas of +1 unit columns, each with
// the same pivot row, the same pivot bits and the same sequence of
// off-diagonal rows and value bits.
func (c *fullCore) sameFactor() {
	lean, full := c.lean.factor, &c.factor
	e := 0
	for fe, r := range full.rowOf {
		if fe < c.units && full.piv[fe] == 1 {
			continue
		}
		if e == lean.count() {
			c.fail("lean factor ends before full eta %d (row %d)", fe, r)
			return
		}
		if lean.rowOf[e] != r || math.Float64bits(lean.piv[e]) != math.Float64bits(full.piv[fe]) {
			c.fail("lean eta %d pivots %v at row %d, full eta %d %v at row %d",
				e, lean.piv[e], lean.rowOf[e], fe, full.piv[fe], r)
			return
		}
		k := lean.start[e]
		for fk := full.start[fe]; fk < full.start[fe+1]; fk++ {
			if full.idx[fk] == r {
				continue
			}
			if k == lean.start[e+1] || lean.idx[k] != full.idx[fk] ||
				math.Float64bits(lean.val[k]) != math.Float64bits(full.val[fk]) {
				c.fail("lean eta %d (row %d) differs from full eta %d at full row %d = %v",
					e, r, fe, full.idx[fk], full.val[fk])
				return
			}
			k++
		}
		if k != lean.start[e+1] {
			c.fail("lean eta %d (row %d) has extra entry at row %d", e, r, lean.idx[k])
			return
		}
		if fe >= c.units && (r >= 64 || k > lean.start[e] && lean.idx[k-1] >= 64) {
			c.stats.wideEtas++
		}
		e++
	}
	if e != lean.count() {
		c.fail("lean factor holds %d etas, full factor %d non-identity", lean.count(), e)
	}
}

// build is the full eta file's refactorization, as sparseCore.refactorize
// was before the file went lean and before its build tracked each column's
// row pattern: every basic unit column pushes an eta, and every structural
// column scans all m rows, once for its pivot and once to compress its eta.
// It is the reference refactorize must match.
func (c *fullCore) build() bool {
	const pivTol = 1e-9
	s := c.lean.s
	m := s.m
	var nf fullEtaFile
	nf.reset()
	assigned := make([]bool, m)
	newBasis := make([]int, m)
	c.lean.markBasic()
	basicSet := c.lean.basicSet
	units := 0
	for j := s.nStruct; j < s.n; j++ {
		if !basicSet[j] {
			continue
		}
		units++
		home := j - s.nStruct
		piv := 1.0
		if j >= s.artStart {
			home = s.artRow[j-s.artStart]
			piv = s.artSign[j-s.artStart]
		}
		if assigned[home] {
			return false
		}
		nf.pushUnit(home, piv)
		assigned[home] = true
		newBasis[home] = j
	}
	work := make([]float64, m)
	for j := 0; j < s.nStruct; j++ {
		if !basicSet[j] {
			continue
		}
		for i := range work {
			work[i] = 0
		}
		c.lean.scatterColumn(j, work)
		nf.ftran(work)
		best, bestAbs := -1, pivTol
		for r := 0; r < m; r++ {
			if assigned[r] {
				continue
			}
			if a := math.Abs(work[r]); a > bestAbs {
				best, bestAbs = r, a
			}
		}
		if best < 0 {
			return false
		}
		nf.pushDense(best, work)
		assigned[best] = true
		newBasis[best] = j
	}
	c.factor = nf
	c.units = units
	c.updates.reset()
	copy(s.basis, newBasis)

	// The basic values, as sparseCore.deriveBeta derives them.
	rhs := make([]float64, m)
	for i := 0; i < m; i++ {
		rhs[i] = s.prob.Constraints[i].RHS
	}
	for j := 0; j < s.n; j++ {
		if basicSet[j] {
			continue
		}
		x := s.nonbasicValue(j)
		if x == 0 {
			continue
		}
		for k := c.lean.mat.ptr[j]; k < c.lean.mat.ptr[j+1]; k++ {
			rhs[c.lean.mat.idx[k]] -= c.lean.mat.val[k] * x
		}
	}
	c.ftran(rhs)
	s.beta = rhs
	return true
}

// leanEtaMismatch solves p under opts on the production core and on a
// fullCore, and describes the first difference ("" when none): any bit of an
// FTRAN or BTRAN output along the full-core solve, or of the two solves'
// X and Objective, or their status, basis or effort counters. A warm basis
// that carries a factor is adopted by the production solve only, which then
// builds once less, so its refactorizations are not compared.
func leanEtaMismatch(p *Problem, opts Options, stats *leanStats) (string, error) {
	got, err := SolveCtx(context.Background(), p, opts)
	if err != nil {
		return "", err
	}
	var diff string
	want, err := SolveCtx(context.Background(), p, withFullCore(opts, &diff, stats))
	if err != nil {
		return "", err
	}
	switch {
	case diff != "":
		return diff, nil
	case got.Status != want.Status:
		return fmt.Sprintf("status %v, full eta file %v", got.Status, want.Status), nil
	case got.Iterations != want.Iterations ||
		got.Refactorizations != want.Refactorizations && (opts.WarmBasis == nil || opts.WarmBasis.factor.Load() == nil):
		return fmt.Sprintf("%d iterations and %d refactorizations, full eta file %d and %d",
			got.Iterations, got.Refactorizations, want.Iterations, want.Refactorizations), nil
	case math.Float64bits(got.Objective) != math.Float64bits(want.Objective):
		return fmt.Sprintf("objective %v, full eta file %v", got.Objective, want.Objective), nil
	case (got.Basis == nil) != (want.Basis == nil):
		return fmt.Sprintf("basis exported %v, full eta file %v", got.Basis != nil, want.Basis != nil), nil
	}
	for k := range want.X {
		if math.Float64bits(got.X[k]) != math.Float64bits(want.X[k]) {
			return fmt.Sprintf("X[%d] = %v, full eta file %v", k, got.X[k], want.X[k]), nil
		}
	}
	if want.Basis != nil {
		for i := range want.Basis.Basic {
			if got.Basis.Basic[i] != want.Basis.Basic[i] {
				return fmt.Sprintf("Basic[%d] = %d, full eta file %d", i, got.Basis.Basic[i], want.Basis.Basic[i]), nil
			}
		}
	}
	return "", nil
}

// leanEtaTrial checks one seeded degenerate LP: cold solves, whose
// artificial columns carry both signs, at the default refactorization
// cadence and rebuilding every two pivots, then warm solves of a
// bound-tightened child from the cold solve's basis, once adopting the lean
// factor the basis carries and once rebuilding it.
func leanEtaTrial(t *testing.T, seed int64, nVars, nCons int, stats *leanStats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	p := degenerateLP(rng, nVars, nCons)
	j := rng.Intn(nVars)
	child := map[int]float64{j: p.Variables[j].Lower + float64(rng.Intn(2))}
	for _, cold := range []Options{{}, {RefactorEvery: 2}} {
		root, err := SolveCtx(context.Background(), p, cold)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		runs := []Options{cold}
		if root.Basis != nil && !math.IsInf(child[j], -1) && child[j] <= p.Variables[j].Upper {
			warm := cold
			warm.LowerOverride, warm.WarmBasis = child, root.Basis
			rebuilt := warm
			rebuilt.WarmBasis = &Basis{Basic: root.Basis.Basic, Status: root.Basis.Status}
			runs = append(runs, warm, rebuilt)
		}
		for k, opts := range runs {
			diff, err := leanEtaMismatch(p, opts, stats)
			if err != nil {
				t.Fatalf("seed %d refactor-every %d run %d: %v", seed, cold.RefactorEvery, k, err)
			}
			if diff != "" {
				t.Fatalf("seed %d refactor-every %d run %d (%d vars, %d rows): %s",
					seed, cold.RefactorEvery, k, nVars, len(p.Constraints), diff)
			}
		}
	}
}

// TestLeanEtaMatchesFull: the lean eta file — no identity etas, no stored
// diagonals — built by tracking each column's row pattern changes no bit of
// any result. On seeded degenerate LPs, cold and warm, every FTRAN and BTRAN
// output of the production core equals the full eta file's as Float64bits,
// and so do whole-solve X and Objective; every column the canonicalization
// pass resumes along the update chain equals a whole FTRAN up to the sign of
// a zero. Every lean factor equals the dense-scan full build eta by eta,
// less its identity etas; every lean eta lists its rows strictly ascending,
// never its diagonal; and the seeds build factors with artificials of both
// signs. The last block has 65 to 160 rows, so the row pattern spans two or
// three words.
func TestLeanEtaMatchesFull(t *testing.T) {
	var stats leanStats
	for seed := int64(1); seed <= 300; seed++ {
		leanEtaTrial(t, seed, 4+int(seed%13), 3+int(seed%11), &stats)
	}
	for seed := int64(301); seed <= 320; seed++ {
		leanEtaTrial(t, seed, 6+int(seed%15), 65+int(seed*37%96), &stats)
	}
	t.Logf("basic artificials in built factors: %d at +1, %d at −1; %d etas past row 63; %d resumed columns",
		stats.plusArts, stats.minusArts, stats.wideEtas, stats.resumes)
	if stats.plusArts == 0 || stats.minusArts == 0 {
		t.Errorf("no factor held a basic artificial of each sign: %+v", stats)
	}
	if stats.wideEtas == 0 {
		t.Errorf("no factor eta reached past row 63: %+v", stats)
	}
	if stats.resumes == 0 {
		t.Errorf("no lex-pass column was resumed: %+v", stats)
	}
}

// FuzzLeanEta is TestLeanEtaMatchesFull over fuzzed seeds and sizes, up to
// 160 rows so the row pattern can span three words.
func FuzzLeanEta(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(4))
	f.Add(int64(7), uint8(16), uint8(13))
	f.Add(int64(11), uint8(14), uint8(99))
	f.Fuzz(func(t *testing.T, seed int64, nVars, nCons uint8) {
		var stats leanStats
		leanEtaTrial(t, seed, 1+int(nVars%24), 1+int(nCons%160), &stats)
	})
}
