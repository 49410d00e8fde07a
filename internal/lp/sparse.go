package lp

import (
	"math"
	"math/bits"
)

// cscMatrix stores the full column set of the solver form — structural
// variables, slacks, artificials — in compressed sparse column layout.
// Column j's entries are rows idx[ptr[j]:ptr[j+1]] with values
// val[ptr[j]:ptr[j+1]], rows ascending within a column. The matrix is built
// once per solve and never mutated (a warm solve of the same problem may
// share it); everything basis-dependent lives in the eta files.
type cscMatrix struct {
	ptr []int32
	idx []int32
	val []float64
}

// buildCSC assembles the matrix from the raw problem rows, after any
// artificial columns have been added. Duplicate (row, variable) entries are
// summed in declaration order, matching the dense test oracle's raw rows.
// Its arrays come from the solve's workspace.
func buildCSC(s *simplex) cscMatrix {
	ws := s.ws
	// Count the structural entries of each column, then place them column
	// by column. Rows are visited in ascending order, so each column's rows
	// are non-decreasing and duplicate entries of one row sit adjacent.
	// pos[j] is where column j's next entry goes, so once all are placed it
	// is where column j ends.
	pos := take(&ws.pos, s.nStruct+1, s.nStruct+1)
	defer put(&ws.pos, pos)
	for _, c := range s.prob.Constraints {
		for _, e := range c.Row {
			pos[e.Var+1]++
		}
	}
	for j := 0; j < s.nStruct; j++ {
		pos[j+1] += pos[j]
	}
	nnz := int(pos[s.nStruct])
	units := s.n - s.nStruct
	mat := cscMatrix{
		ptr: take(&ws.mat.ptr, 0, s.n+1),
		idx: take(&ws.mat.idx, nnz, nnz+units),
		val: take(&ws.mat.val, nnz, nnz+units),
	}
	for i, c := range s.prob.Constraints {
		for _, e := range c.Row {
			k := pos[e.Var]
			mat.idx[k], mat.val[k] = int32(i), e.Coef
			pos[e.Var]++
		}
	}
	// Sum the duplicates, compacting in place: an entry never moves past
	// where it was placed.
	mat.ptr = append(mat.ptr, 0)
	k, from := 0, 0
	for j := 0; j < s.nStruct; j++ {
		for ; from < int(pos[j]); from++ {
			if k > int(mat.ptr[j]) && mat.idx[k-1] == mat.idx[from] {
				mat.val[k-1] += mat.val[from]
				continue
			}
			mat.idx[k], mat.val[k] = mat.idx[from], mat.val[from]
			k++
		}
		mat.ptr = append(mat.ptr, int32(k))
	}
	mat.idx, mat.val = mat.idx[:k], mat.val[:k]
	// One +1 slack per constraint.
	for i := 0; i < s.m; i++ {
		mat.idx = append(mat.idx, int32(i))
		mat.val = append(mat.val, 1)
		mat.ptr = append(mat.ptr, int32(len(mat.idx)))
	}
	// Artificial columns: ±1 in their home row.
	for k, r := range s.artRow {
		mat.idx = append(mat.idx, int32(r))
		mat.val = append(mat.val, s.artSign[k])
		mat.ptr = append(mat.ptr, int32(len(mat.idx)))
	}
	return mat
}

// etaFile is a sequence of product-form eta matrices stored in flat arrays
// (one shared arena, no per-eta allocation on the pivot path). Eta e differs
// from the identity only in column rowOf[e]: its diagonal element is piv[e],
// and its off-diagonal entries are listed in idx/val[start[e]:start[e+1]],
// which never name row rowOf[e] itself. B = E_0·E_1·…·E_{k−1}, so FTRAN
// applies the inverses in creation order and BTRAN in reverse.
//
// The file holds only what FTRAN and BTRAN read. A +1 unit column (a slack,
// or a +1 artificial) gets no eta: its eta is the identity, and applying it
// (a division by +1, no off-diagonal entries) leaves every value, −0
// included, bit for bit unchanged.
type etaFile struct {
	rowOf []int32
	piv   []float64
	start []int32
	idx   []int32
	val   []float64
}

// reserve empties f and gives it room for at least etas etas and entries
// off-diagonal entries, so that a build or update chain no larger grows no
// slice. Room f already has is kept.
func (f *etaFile) reserve(etas, entries int) {
	if cap(f.rowOf) < etas {
		f.rowOf = make([]int32, 0, etas)
		f.piv = make([]float64, 0, etas)
		f.start = make([]int32, 1, etas+1)
	}
	if cap(f.idx) < entries {
		f.idx = make([]int32, 0, entries)
		f.val = make([]float64, 0, entries)
	}
	f.reset()
}

func (f *etaFile) reset() {
	f.rowOf = f.rowOf[:0]
	f.piv = f.piv[:0]
	if len(f.start) == 0 {
		f.start = append(f.start, 0)
	}
	f.start = f.start[:1]
	f.idx = f.idx[:0]
	f.val = f.val[:0]
}

func (f *etaFile) count() int { return len(f.rowOf) }

// etaDropTol is the magnitude below which off-pivot eta entries are dropped
// when a dense spike is compressed into an eta. Entries that small are
// floating-point dust from the preceding solves; keeping them would only
// lengthen every future FTRAN/BTRAN.
const etaDropTol = 1e-13

// pushDense compresses the dense spike v into a new eta with pivot row r.
// The pivot entry is always kept in piv, whatever its magnitude.
func (f *etaFile) pushDense(r int, v []float64) {
	f.rowOf = append(f.rowOf, int32(r))
	f.piv = append(f.piv, v[r])
	for i, x := range v {
		if i == r || math.Abs(x) <= etaDropTol {
			continue
		}
		f.idx = append(f.idx, int32(i))
		f.val = append(f.val, x)
	}
	f.start = append(f.start, int32(len(f.idx)))
}

// pushPattern is pushDense for a spike v whose nonzeros all lie in the rows
// pattern marks: it visits those rows alone, in ascending order, so the eta
// it stores is the one pushDense would. It also zeroes those rows of v and
// clears pattern.
func (f *etaFile) pushPattern(r int, v []float64, pattern []uint64) {
	f.rowOf = append(f.rowOf, int32(r))
	f.piv = append(f.piv, v[r])
	for w, word := range pattern {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			x := v[i]
			v[i] = 0
			if i == r || math.Abs(x) <= etaDropTol {
				continue
			}
			f.idx = append(f.idx, int32(i))
			f.val = append(f.val, x)
		}
		pattern[w] = 0
	}
	f.start = append(f.start, int32(len(f.idx)))
}

// pushUnit appends the eta of a −1 unit column at its home row; a +1 unit
// column is the identity and gets none.
func (f *etaFile) pushUnit(r int, piv float64) {
	if piv == 1 {
		return
	}
	f.rowOf = append(f.rowOf, int32(r))
	f.piv = append(f.piv, piv)
	f.start = append(f.start, int32(len(f.idx)))
}

// ftran solves B·x' = x in place: x ← E_{k−1}⁻¹·…·E_0⁻¹·x.
func (f *etaFile) ftran(x []float64) { f.ftranFrom(x, 0) }

// ftranFrom applies the inverses of etas from, from+1, …, k−1 to x in place.
// The etas apply strictly in sequence, so a vector taken through the first
// from etas by one call comes out of this one as one whole ftran would
// leave it.
func (f *etaFile) ftranFrom(x []float64, from int) {
	for e := from; e < len(f.rowOf); e++ {
		r := f.rowOf[e]
		xr := x[r]
		if xr == 0 {
			continue
		}
		t := xr / f.piv[e]
		for k := f.start[e]; k < f.start[e+1]; k++ {
			x[f.idx[k]] -= f.val[k] * t
		}
		x[r] = t
	}
}

// ftranPattern is ftran that also marks in pattern every row it writes.
// Only an eta's off-diagonal rows need marking: it writes its pivot row only
// when that row is already nonzero, hence already marked.
func (f *etaFile) ftranPattern(x []float64, pattern []uint64) {
	for e := 0; e < len(f.rowOf); e++ {
		r := f.rowOf[e]
		xr := x[r]
		if xr == 0 {
			continue
		}
		t := xr / f.piv[e]
		for k := f.start[e]; k < f.start[e+1]; k++ {
			i := f.idx[k]
			x[i] -= f.val[k] * t
			pattern[i>>6] |= 1 << (uint32(i) & 63)
		}
		x[r] = t
	}
}

// btran solves Bᵀ·y' = y in place: y ← E_0⁻ᵀ·…·E_{k−1}⁻ᵀ·y.
func (f *etaFile) btran(y []float64) {
	for e := len(f.rowOf) - 1; e >= 0; e-- {
		r := f.rowOf[e]
		acc := 0.0
		for k := f.start[e]; k < f.start[e+1]; k++ {
			acc += f.val[k] * y[f.idx[k]]
		}
		y[r] = (y[r] - acc) / f.piv[e]
	}
}

// sparseCore is the revised simplex engine: A in CSC form, the basis inverse
// as an elimination-form LU factorization in product form (the eta file
// factor, rebuilt by refactorize) extended by one update eta per pivot.
// Tableau columns are FTRAN solves, pivot rows and reduced costs are BTRAN
// solves followed by one pass over the matrix nonzeros — so pivot cost scales
// with nnz(A) plus the eta-file size instead of m·n. A factor holds one eta
// per structural basic column and per basic −1 artificial: the +1 slacks and
// artificials, often half the basis, cost nothing.
//
// A factor is immutable once built: the final one of an optimal solve is
// carried on the exported Basis, and a warm solve of the same problem adopts
// it (borrowed) instead of rebuilding it. The update chain is always the
// solve's own.
type sparseCore struct {
	s   *simplex
	mat cscMatrix

	factor  *etaFile // LU factorization of the last build (or the adopted one)
	updates etaFile  // one product-form eta per pivot since the last build
	peak    int      // longest update chain seen between refactorizations

	// lent is the carried factorization the core adopted, nil for none: mat
	// is its matrix for the whole solve, and factor its factor until a build
	// replaces it. The core holds one of its references until the solve ends.
	lent *basisFactor

	warmEntries int // a warm start's factor entries, as its Basis reported them

	// Scratch, sized once per solve and reused by every refactorization.
	spare    *etaFile  // factorization under construction (swapped in on success)
	work     []float64 // dense length-m scratch for FTRAN/BTRAN vectors
	pattern  []uint64  // ⌈m/64⌉ words: rows a build's column spike has written
	rhs      []float64 // dense length-m scratch for refactorized basic values
	assigned []bool    // length m: row already holds a pivot
	newBasis []int     // length m: row assignment under construction
	basicSet []bool    // length n: column is basic
}

// updateDriftTol is the pivot-element magnitude below which an update eta is
// considered too ill-conditioned to extend the chain: the pivot is still
// applied (the eta is exact), but the factorization is immediately rebuilt
// from the raw data before anything else reads it.
const updateDriftTol = 1e-7

// newSparseCore stands up a core on mat for s, drawing its scratch and its
// update chain from the solve's workspace.
func newSparseCore(s *simplex, mat cscMatrix) *sparseCore {
	ws := s.ws
	c := ws.core
	ws.core = nil
	if c == nil {
		c = new(sparseCore)
	}
	words := (s.m + 63) / 64
	*c = sparseCore{
		s:        s,
		mat:      mat,
		updates:  ws.updates,
		work:     take(&ws.work, s.m, s.m),
		pattern:  take(&ws.pattern, words, words),
		rhs:      take(&ws.coreRHS, s.m, s.m),
		assigned: take(&ws.assigned, s.m, s.m),
		newBasis: take(&ws.newBasis, s.m, s.m),
		basicSet: take(&ws.basicSet, s.n, s.n),
	}
	ws.updates = etaFile{}
	// A chain holds at most refresh etas; one eta holds at most m entries.
	c.updates.reserve(s.refresh, s.m)
	return c
}

// borrowed reports whether factor is the adopted one, which belongs to the
// Bases that carry it: the core never recycles it.
func (c *sparseCore) borrowed() bool { return c.lent != nil && c.factor == c.lent.lu }

func (c *sparseCore) peakEta() int { return c.peak }

// ftran solves B·x' = x in place: the factor etas, then the updates — the
// same operations in the same order as one combined eta file.
func (c *sparseCore) ftran(x []float64) {
	c.factor.ftran(x)
	c.updates.ftran(x)
}

// btran solves Bᵀ·y' = y in place: the updates in reverse, then the factor.
func (c *sparseCore) btran(y []float64) {
	c.updates.btran(y)
	c.factor.btran(y)
}

// scatterColumn writes raw column j of A into the zeroed dense vector dst.
func (c *sparseCore) scatterColumn(j int, dst []float64) {
	for k := c.mat.ptr[j]; k < c.mat.ptr[j+1]; k++ {
		dst[c.mat.idx[k]] = c.mat.val[k]
	}
}

func (c *sparseCore) column(j int, dst []float64) {
	for i := range dst {
		dst[i] = 0
	}
	c.scatterColumn(j, dst)
	c.ftran(dst)
}

func (c *sparseCore) stamp() int { return c.updates.count() }

// columnSince takes dst, column j as column left it when the update chain
// held since etas, through the etas added since.
func (c *sparseCore) columnSince(_ int, dst []float64, since int) {
	c.updates.ftranFrom(dst, since)
}

func (c *sparseCore) pivotRow(r int, dst []float64) {
	rho := c.work
	for i := range rho {
		rho[i] = 0
	}
	rho[r] = 1
	c.btran(rho)
	// Row r of B⁻¹·A is ρᵀ·A with ρ = B⁻ᵀ·e_r.
	mat := &c.mat
	for j := 0; j < c.s.n; j++ {
		acc := 0.0
		for k := mat.ptr[j]; k < mat.ptr[j+1]; k++ {
			acc += mat.val[k] * rho[mat.idx[k]]
		}
		dst[j] = acc
	}
}

func (c *sparseCore) reducedCosts(cost []float64, dst []float64) {
	s := c.s
	y := c.work
	anyNonzero := false
	for i, j := range s.basis {
		y[i] = cost[j]
		if y[i] != 0 {
			anyNonzero = true
		}
	}
	if !anyNonzero {
		copy(dst, cost[:s.n])
		return
	}
	c.btran(y)
	mat := &c.mat
	for j := 0; j < s.n; j++ {
		acc := 0.0
		for k := mat.ptr[j]; k < mat.ptr[j+1]; k++ {
			acc += mat.val[k] * y[mat.idx[k]]
		}
		dst[j] = cost[j] - acc
	}
}

// applyPivot appends the product-form update eta for the basis exchange —
// B_new = B_old·E with E the identity except for column leaveRow = alpha —
// then refactorizes when the chain hits its cap (Options.RefactorEvery) or
// the pivot element signals drift. The eta is pushed before any rebuild is
// attempted so a singular refactorization (numerically possible on
// pathological data, never for an exact basis) still leaves a valid, merely
// longer, factorization behind.
func (c *sparseCore) applyPivot(enter, leaveRow int, alpha []float64) bool {
	c.updates.pushDense(leaveRow, alpha)
	chain := c.updates.count()
	if chain > c.peak {
		c.peak = chain
	}
	if math.Abs(alpha[leaveRow]) < updateDriftTol || chain >= c.s.refresh {
		return c.refactorize()
	}
	return false
}

// markBasic fills basicSet from the driver's current basic columns.
func (c *sparseCore) markBasic() {
	for j := range c.basicSet {
		c.basicSet[j] = false
	}
	for _, j := range c.s.basis {
		c.basicSet[j] = true
	}
}

// refactorize rebuilds the eta factorization from the raw matrix and the
// driver's current basic set, then recomputes the basic values, making the
// core state a pure function of the basic set. The elimination order mirrors
// the dense test oracle exactly: unit columns (slacks, artificials) pivot at
// their home rows in ascending column order, then structural basis columns in
// ascending index order pick their row by partial pivoting — the largest
// partially-FTRANed magnitude among unassigned rows, lowest row on ties.
// Returns false (old factorization untouched) when the basis is singular.
// The arena the build fills is sized first (see buildSize).
func (c *sparseCore) refactorize() bool {
	const pivTol = 1e-9
	s := c.s

	if c.spare == nil {
		c.spare = s.ws.factor()
	}
	nf := c.spare
	nf.reserve(c.buildSize())
	assigned, newBasis, basicSet := c.assigned, c.newBasis, c.basicSet
	for i := range assigned {
		assigned[i] = false
	}
	c.markBasic()

	// Unit columns first: their home row is forced.
	for j := s.nStruct; j < s.n; j++ {
		if !basicSet[j] {
			continue
		}
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
	// Structural columns by partial pivoting over the unassigned rows. A
	// column's spike marks in pattern every row its scatter and FTRAN write;
	// the other rows hold +0, so the pivot search and the compression visit
	// the marked rows alone. Both go in ascending row order, as a dense scan
	// would: the search breaks ties by row, and BTRAN sums an eta's entries
	// in stored order. Each push leaves work zero and pattern clear again.
	work, pattern := c.work, c.pattern
	clear(work) // pivotRow and reducedCosts leave it dirty
	mat := &c.mat
	for j := 0; j < s.nStruct; j++ {
		if !basicSet[j] {
			continue
		}
		for k := mat.ptr[j]; k < mat.ptr[j+1]; k++ {
			i := mat.idx[k]
			work[i] = mat.val[k]
			pattern[i>>6] |= 1 << (uint32(i) & 63)
		}
		nf.ftranPattern(work, pattern)
		best, bestAbs := -1, pivTol
		for w, word := range pattern {
			for ; word != 0; word &= word - 1 {
				r := w<<6 | bits.TrailingZeros64(word)
				if assigned[r] {
					continue
				}
				if a := math.Abs(work[r]); a > bestAbs {
					best, bestAbs = r, a
				}
			}
		}
		if best < 0 {
			clear(work)
			clear(pattern)
			return false
		}
		nf.pushPattern(best, work, pattern)
		assigned[best] = true
		newBasis[best] = j
	}

	// Commit: swap in the fresh factorization (recycling the old one as
	// scratch unless it is borrowed), clear the update chain, install the
	// (possibly permuted) row assignment, and re-derive the basic values.
	borrowed := c.borrowed()
	old := c.factor
	c.factor, c.spare = nf, nil
	if !borrowed {
		c.spare = old
	}
	c.updates.reset()
	copy(s.basis, newBasis)
	c.deriveBeta()
	return true
}

// buildSize estimates the etas and entries of the factor refactorize is
// about to build for the current basic set: one eta per structural column
// and per −1 artificial, and for entries the largest of the current
// factor's count, the count the warm start's Basis reported for this basic
// set and the structural columns' nonzeros (fill-in can take a build past
// the last).
func (c *sparseCore) buildSize() (etas, entries int) {
	s := c.s
	for _, j := range s.basis {
		switch {
		case j < s.nStruct:
			etas++
			entries += int(c.mat.ptr[j+1] - c.mat.ptr[j])
		case j >= s.artStart && s.artSign[j-s.artStart] < 0:
			etas++
		}
	}
	entries = max(entries, c.warmEntries)
	if c.factor != nil {
		entries = max(entries, len(c.factor.idx))
	}
	return etas, entries
}

// adopt installs f's factor, a factorization another solve of the same
// problem built for exactly the driver's basic set and row assignment, in
// place of a build; the caller has taken a reference on f for the core.
// refactorize is a pure function of that basic set and the matrix, so the
// factor is bit for bit what it would build; only the basic values depend on
// this solve's bounds and statuses, and they are derived here.
func (c *sparseCore) adopt(f *basisFactor) {
	c.factor, c.lent = f.lu, f
	c.markBasic()
	c.deriveBeta()
}

// deriveBeta recomputes the basic values β = B⁻¹·(b − A_N·x_N) from the raw
// data through the current factorization; basicSet must be current.
func (c *sparseCore) deriveBeta() {
	s := c.s
	m := s.m
	rhs := c.rhs
	for i := 0; i < m; i++ {
		rhs[i] = s.prob.Constraints[i].RHS
	}
	for j := 0; j < s.n; j++ {
		if c.basicSet[j] {
			continue
		}
		x := s.nonbasicValue(j)
		if x == 0 {
			continue
		}
		for k := c.mat.ptr[j]; k < c.mat.ptr[j+1]; k++ {
			rhs[c.mat.idx[k]] -= c.mat.val[k] * x
		}
	}
	c.ftran(rhs)
	copy(s.beta, rhs)
}

// carried returns the factorization to attach to an exported Basis, holding
// one reference for it: the current factor with no update etas on top, the
// matrix truncated to the structural and slack columns (artificials never
// appear in an exported basis), and the row assignment. Nothing is copied;
// the solve is over. A core still on the factor it adopted (nothing moved
// since) returns the adopted factorization itself.
func (c *sparseCore) carried() *basisFactor {
	if c.borrowed() {
		c.lent.refs.Add(1)
		return c.lent
	}
	s := c.s
	cols := s.nStruct + s.m
	end := c.mat.ptr[cols]
	f := &basisFactor{
		prob: s.prob,
		mat: cscMatrix{
			ptr: c.mat.ptr[: cols+1 : cols+1],
			idx: c.mat.idx[:end:end],
			val: c.mat.val[:end:end],
		},
		lu:   c.factor,
		rows: s.basis,
	}
	f.refs.Store(1)
	return f
}
