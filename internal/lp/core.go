package lp

// tableauCore is the basis-inverse engine behind one simplex solve. The
// driver owns the problem data, bounds, statuses, basic values (beta) and the
// reduced-cost row; the core owns whatever representation of B⁻¹ it needs to
// answer the queries below. Every method must be deterministic: the pivot
// sequence — and with it the exported effort counters — is a pure function of
// the problem and options.
//
// Production solves always run the sparse revised core (sparse.go). The
// interface exists so the tests can run the same driver over the dense
// tableau oracle (dense_test.go) and compare the two.
type tableauCore interface {
	// refactorize rebuilds the representation from the raw problem data and
	// the driver's current basic set, discarding accumulated floating-point
	// error. It reassigns basic columns to rows (writing s.basis) and
	// recomputes the basic values (writing s.beta) so the state after a
	// refactorization is a pure function of the basic set, not of the pivot
	// path that reached it. Returns false when the basis matrix is singular,
	// leaving the previous representation intact.
	refactorize() bool
	// column writes the current tableau column T_j = B⁻¹·A_j into dst, which
	// has length m and arbitrary prior contents.
	column(j int, dst []float64)
	// stamp names the core's current state for columnSince: the number of
	// update etas since the last build for a core with an update chain.
	stamp() int
	// columnSince brings dst, which holds column j's tableau values as
	// column computed them when stamp() read since (up to the sign of a
	// zero), to the current tableau column T_j. No build may lie between.
	// The sparse core applies only the update etas added since; cores
	// without an update chain recompute the column.
	columnSince(j int, dst []float64, since int)
	// pivotRow writes row r of the current tableau B⁻¹·A into dst, which has
	// length n and arbitrary prior contents.
	pivotRow(r int, dst []float64)
	// reducedCosts writes d = c − c_Bᵀ·B⁻¹·A into dst (length n) from
	// scratch, reading the basic cost entries through the driver's basis.
	reducedCosts(cost []float64, dst []float64)
	// applyPivot installs the basis exchange the driver has already recorded
	// in s.basis/s.status: column enter became basic in row leaveRow, and
	// alpha is the tableau column of enter under the pre-pivot basis (as
	// used by the ratio test). The returned flag reports whether the core
	// refactorized as part of the update (eta chain at its cap, or an
	// unsafely small pivot element); the driver must then refresh its
	// reduced costs, because s.beta and the row assignment were rebuilt.
	applyPivot(enter, leaveRow int, alpha []float64) (rebuilt bool)
	// peakEta reports the longest product-form eta chain the core carried
	// between refactorizations (zero for cores without update chains).
	peakEta() int
}
