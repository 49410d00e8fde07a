package lp

import "math"

// cscMatrix stores the full column set of the solver form — structural
// variables, slacks, artificials — in compressed sparse column layout.
// Column j's entries are rows idx[ptr[j]:ptr[j+1]] with values
// val[ptr[j]:ptr[j+1]], rows ascending within a column. The matrix is built
// once per solve and never mutated; everything basis-dependent lives in the
// eta file.
type cscMatrix struct {
	ptr []int32
	idx []int32
	val []float64
}

// buildCSC assembles the matrix from the raw problem rows, after any
// artificial columns have been added. Duplicate (row, variable) entries are
// summed in declaration order, matching the dense test oracle's raw rows.
func buildCSC(s *simplex) cscMatrix {
	// Bucket the structural entries column by column. Rows are visited in
	// ascending order, so each bucket's rows are non-decreasing and duplicate
	// entries of one row sit adjacent.
	type rv struct {
		row  int32
		coef float64
	}
	buckets := make([][]rv, s.nStruct)
	nnz := 0
	for i, c := range s.prob.Constraints {
		for _, e := range c.Row {
			buckets[e.Var] = append(buckets[e.Var], rv{int32(i), e.Coef})
			nnz++
		}
	}
	mat := cscMatrix{
		ptr: make([]int32, 0, s.n+1),
		idx: make([]int32, 0, nnz+s.n-s.nStruct),
		val: make([]float64, 0, nnz+s.n-s.nStruct),
	}
	mat.ptr = append(mat.ptr, 0)
	for j := 0; j < s.nStruct; j++ {
		for _, e := range buckets[j] {
			if k := len(mat.idx); k > int(mat.ptr[j]) && mat.idx[k-1] == e.row {
				mat.val[k-1] += e.coef
				continue
			}
			mat.idx = append(mat.idx, e.row)
			mat.val = append(mat.val, e.coef)
		}
		mat.ptr = append(mat.ptr, int32(len(mat.idx)))
	}
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
// from the identity only in column rowOf[e]: the entries listed in
// idx/val[start[e]:start[e+1]], with the diagonal element piv[e] at row
// rowOf[e]. B = E_0·E_1·…·E_{k−1}, so FTRAN applies the inverses in creation
// order and BTRAN in reverse.
type etaFile struct {
	rowOf []int32
	piv   []float64
	start []int32
	idx   []int32
	val   []float64
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
// The pivot entry is always kept, whatever its magnitude.
func (f *etaFile) pushDense(r int, v []float64) {
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

// pushUnit appends an eta for a ±1 unit column at its home row.
func (f *etaFile) pushUnit(r int, piv float64) {
	f.rowOf = append(f.rowOf, int32(r))
	f.piv = append(f.piv, piv)
	f.idx = append(f.idx, int32(r))
	f.val = append(f.val, piv)
	f.start = append(f.start, int32(len(f.idx)))
}

// ftran solves B·x' = x in place: x ← E_{k−1}⁻¹·…·E_0⁻¹·x.
func (f *etaFile) ftran(x []float64) {
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

// btran solves Bᵀ·y' = y in place: y ← E_0⁻ᵀ·…·E_{k−1}⁻ᵀ·y.
func (f *etaFile) btran(y []float64) {
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

// sparseCore is the revised simplex engine: A in CSC form, the basis inverse
// as an elimination-form LU factorization in product form (the eta prefix
// etas[:factorLen], rebuilt by refactorize) extended by one update eta per
// pivot. Tableau columns are FTRAN solves, pivot rows and reduced costs are
// BTRAN solves followed by one pass over the matrix nonzeros — so pivot cost
// scales with nnz(A) plus the eta-chain length instead of m·n.
type sparseCore struct {
	s   *simplex
	mat cscMatrix

	etas      etaFile
	factorLen int // etas[:factorLen] is the refactorization; the rest are updates
	peak      int // longest update chain seen between refactorizations

	spare etaFile   // factorization under construction (swapped in on success)
	work  []float64 // dense length-m scratch for FTRAN/BTRAN vectors
	rhs   []float64 // dense length-m scratch for refactorized basic values
}

// updateDriftTol is the pivot-element magnitude below which an update eta is
// considered too ill-conditioned to extend the chain: the pivot is still
// applied (the eta is exact), but the factorization is immediately rebuilt
// from the raw data before anything else reads it.
const updateDriftTol = 1e-7

func newSparseCore(s *simplex) *sparseCore {
	c := &sparseCore{
		s:    s,
		mat:  buildCSC(s),
		work: make([]float64, s.m),
		rhs:  make([]float64, s.m),
	}
	c.etas.reset()
	c.spare.reset()
	return c
}

func (c *sparseCore) peakEta() int { return c.peak }

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
	c.etas.ftran(dst)
}

func (c *sparseCore) pivotRow(r int, dst []float64) {
	rho := c.work
	for i := range rho {
		rho[i] = 0
	}
	rho[r] = 1
	c.etas.btran(rho)
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
	c.etas.btran(y)
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
	c.etas.pushDense(leaveRow, alpha)
	if chain := c.etas.count() - c.factorLen; chain > c.peak {
		c.peak = chain
	}
	if math.Abs(alpha[leaveRow]) < updateDriftTol || c.etas.count()-c.factorLen >= c.s.refresh {
		return c.refactorize()
	}
	return false
}

// refactorize rebuilds the eta factorization from the raw matrix and the
// driver's current basic set, then recomputes the basic values, making the
// core state a pure function of the basic set. The elimination order mirrors
// the dense test oracle exactly: unit columns (slacks, artificials) pivot at
// their home rows in ascending column order, then structural basis columns in
// ascending index order pick their row by partial pivoting — the largest
// partially-FTRANed magnitude among unassigned rows, lowest row on ties.
// Returns false (old factorization untouched) when the basis is singular.
func (c *sparseCore) refactorize() bool {
	const pivTol = 1e-9
	s := c.s
	m := s.m

	nf := &c.spare
	nf.reset()
	assigned := make([]bool, m)
	newBasis := make([]int, m)
	basicSet := make([]bool, s.n)
	for _, j := range s.basis {
		basicSet[j] = true
	}

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
	// Structural columns by partial pivoting over the unassigned rows.
	work := c.work
	for j := 0; j < s.nStruct; j++ {
		if !basicSet[j] {
			continue
		}
		for i := range work {
			work[i] = 0
		}
		c.scatterColumn(j, work)
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

	// Commit: swap in the fresh factorization, install the (possibly
	// permuted) row assignment, and re-derive the basic values
	// β = B⁻¹·(b − A_N·x_N) from the raw data.
	c.etas, c.spare = *nf, c.etas
	c.factorLen = c.etas.count()
	copy(s.basis, newBasis)

	rhs := c.rhs
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
		for k := c.mat.ptr[j]; k < c.mat.ptr[j+1]; k++ {
			rhs[c.mat.idx[k]] -= c.mat.val[k] * x
		}
	}
	c.etas.ftran(rhs)
	if len(s.beta) != m {
		s.beta = make([]float64, m)
	}
	copy(s.beta, rhs)
	return true
}
