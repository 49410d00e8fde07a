package lp

import "math"

// denseCore is the reference basis-inverse engine the tests compare the
// sparse core against: the whole tableau T = B⁻¹·A is materialized as an m×n
// array and kept current by full Gauss–Jordan elimination on every pivot.
// Every quantity is read straight off the tableau, with no factorization or
// eta chain in between, so it is an independent numerical cross-check of the
// revised core under the identical driver.
type denseCore struct {
	s       *simplex
	tableau [][]float64 // m rows × n columns, equals B⁻¹·A
}

func newDenseCore(s *simplex) tableauCore {
	return &denseCore{s: s}
}

// denseOracle returns opts with the dense tableau in place of the sparse
// core.
func denseOracle(opts Options) Options {
	opts.newCore = newDenseCore
	return opts
}

func (c *denseCore) column(j int, dst []float64) {
	for i := range c.tableau {
		dst[i] = c.tableau[i][j]
	}
}

// stamp is constant: the tableau holds no update chain to resume along.
func (c *denseCore) stamp() int { return 0 }

// columnSince recomputes the column: the elimination keeps every column of
// the tableau current.
func (c *denseCore) columnSince(j int, dst []float64, _ int) { c.column(j, dst) }

func (c *denseCore) pivotRow(r int, dst []float64) {
	copy(dst, c.tableau[r])
}

func (c *denseCore) reducedCosts(cost []float64, dst []float64) {
	s := c.s
	// Multipliers per row: cost of the basic variable of that row.
	cb := make([]float64, s.m)
	anyNonzero := false
	for i, j := range s.basis {
		cb[i] = cost[j]
		if cb[i] != 0 {
			anyNonzero = true
		}
	}
	for j := 0; j < s.n; j++ {
		d := cost[j]
		if anyNonzero {
			for i := 0; i < s.m; i++ {
				if cb[i] != 0 {
					d -= cb[i] * c.tableau[i][j]
				}
			}
		}
		dst[j] = d
	}
}

// applyPivot eliminates the entering column from every row except the pivot
// row. The driver has already updated beta, statuses and the reduced-cost
// row; alpha (the pre-pivot entering column) equals this tableau's column
// enter, so the elimination factors are read from the tableau itself.
func (c *denseCore) applyPivot(enter, leaveRow int, alpha []float64) bool {
	s := c.s
	prow := c.tableau[leaveRow]
	inv := 1 / prow[enter]
	for j := 0; j < s.n; j++ {
		prow[j] *= inv
	}
	prow[enter] = 1
	for i := 0; i < s.m; i++ {
		if i == leaveRow {
			continue
		}
		factor := c.tableau[i][enter]
		if factor == 0 {
			continue
		}
		row := c.tableau[i]
		for j := 0; j < s.n; j++ {
			row[j] -= factor * prow[j]
		}
		row[enter] = 0
	}
	return false
}

func (c *denseCore) peakEta() int { return 0 }

// refactorize rebuilds the tableau T = B⁻¹·A and the basic values from the
// raw problem data and the current basic set, discarding all floating-point
// error accumulated by incremental pivoting. The elimination order — unit
// columns (slacks, artificials) pivot first at their home rows, then
// structural columns in ascending index order with partial pivoting over the
// unassigned rows — depends only on the basic set, so two solves that reach
// the same basis through different pivot paths end with bit-identical state.
// Returns false when the basis matrix is singular.
func (c *denseCore) refactorize() bool {
	const pivTol = 1e-9
	s := c.s
	m, n := s.m, s.n
	basicSet := make([]bool, n)
	for _, j := range s.basis {
		basicSet[j] = true
	}
	W := make([][]float64, m)
	rhs := make([]float64, m)
	for i := 0; i < m; i++ {
		W[i] = make([]float64, n)
		s.rawRow(i, W[i])
		acc := 0.0
		for j, a := range W[i] {
			if a != 0 && !basicSet[j] {
				acc += a * s.nonbasicValue(j)
			}
		}
		rhs[i] = s.prob.Constraints[i].RHS - acc
	}

	cols := make([]int, 0, m)
	for j := 0; j < n; j++ {
		if basicSet[j] {
			cols = append(cols, j)
		}
	}
	assigned := make([]bool, m)
	newBasis := make([]int, m)
	// eliminate pivots column col in row home; callers have checked that the
	// pivot element is well away from zero.
	eliminate := func(col, home int) {
		inv := 1 / W[home][col]
		prow := W[home]
		for j := 0; j < n; j++ {
			prow[j] *= inv
		}
		prow[col] = 1
		rhs[home] *= inv
		for r := 0; r < m; r++ {
			if r == home {
				continue
			}
			f := W[r][col]
			if f == 0 {
				continue
			}
			row := W[r]
			for j := 0; j < n; j++ {
				row[j] -= f * prow[j]
			}
			row[col] = 0
			rhs[r] -= f * rhs[home]
		}
		assigned[home] = true
		newBasis[home] = col
	}

	// Unit columns: a slack or artificial is ±1 in its home row and zero
	// elsewhere, so it can only pivot there (and the elimination loop finds
	// nothing to do for a still-raw column).
	for _, col := range cols {
		if col < s.nStruct {
			continue
		}
		home := col - s.nStruct
		if col >= s.artStart {
			home = s.artRow[col-s.artStart]
		}
		if assigned[home] || math.Abs(W[home][col]) < pivTol {
			return false
		}
		eliminate(col, home)
	}
	// Structural columns take the remaining rows by partial pivoting.
	for _, col := range cols {
		if col >= s.nStruct {
			continue
		}
		best, bestAbs := -1, pivTol
		for r := 0; r < m; r++ {
			if assigned[r] {
				continue
			}
			if a := math.Abs(W[r][col]); a > bestAbs {
				best, bestAbs = r, a
			}
		}
		if best < 0 {
			return false
		}
		eliminate(col, best)
	}

	c.tableau = W
	if len(s.beta) != m {
		s.beta = make([]float64, m)
	}
	copy(s.beta, rhs)
	copy(s.basis, newBasis)
	return true
}

// rawRow writes the unfactorized constraint row i — structural coefficients,
// the +1 slack, and any artificial columns of that row — into dst, which must
// be zeroed and of length s.n.
func (s *simplex) rawRow(i int, dst []float64) {
	for _, e := range s.prob.Constraints[i].Row {
		dst[e.Var] += e.Coef
	}
	dst[s.nStruct+i] = 1
	for k, r := range s.artRow {
		if r == i {
			dst[s.artStart+k] = s.artSign[k]
		}
	}
}
