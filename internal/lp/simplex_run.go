package lp

import "math"

// run executes phase 1 (drive artificial infeasibility to zero) and phase 2
// (optimize the real objective), returning the final status.
func (s *simplex) run() Status {
	if s.m == 0 && s.n == 0 {
		return StatusOptimal
	}

	// Phase 1 is only needed when artificials were introduced.
	if s.artStart < s.n {
		s.inPhase1 = true
		s.computeReducedCosts()
		st := s.iterate()
		if st == StatusIterLimit || st == StatusCancelled {
			return st
		}
		if s.phase1Objective() > 1e-6 {
			return StatusInfeasible
		}
		// Freeze artificials at zero so they can never re-enter with a
		// nonzero value during phase 2.
		for j := s.artStart; j < s.n; j++ {
			s.lower[j], s.upper[j] = 0, 0
			if s.status[j] != BasisBasic {
				s.status[j] = BasisAtLower
			}
		}
	}

	s.inPhase1 = false
	s.computeReducedCosts()
	return s.iterate()
}

// phase1Objective sums the current artificial variable values.
func (s *simplex) phase1Objective() float64 {
	sum := 0.0
	for i, j := range s.basis {
		if j >= s.artStart {
			sum += s.beta[i]
		}
	}
	return sum
}

// activeCost returns the cost vector of the current phase.
func (s *simplex) activeCost() []float64 {
	if s.inPhase1 {
		return s.phase1Cost
	}
	return s.cost
}

// computeReducedCosts recomputes the reduced-cost row from scratch through
// the core: d_j = c_j − c_Bᵀ·T_j (one BTRAN plus a pass over the matrix
// nonzeros).
func (s *simplex) computeReducedCosts() {
	c := s.activeCost()
	if len(s.reduced) != s.n {
		s.reduced = take(&s.ws.reduced, s.n, s.n)
	}
	s.core.reducedCosts(c, s.reduced)
	for _, j := range s.basis {
		s.reduced[j] = 0
	}
}

// iterate performs simplex pivots until optimality, unboundedness or the
// iteration limit for the active phase.
func (s *simplex) iterate() Status {
	sinceRefresh := 0
	for {
		if s.iterations >= s.maxIter {
			return StatusIterLimit
		}
		if s.cancelled() {
			return StatusCancelled
		}
		if sinceRefresh >= s.refresh {
			s.computeReducedCosts()
			sinceRefresh = 0
		}

		enter, dir := s.chooseEntering()
		if enter < 0 {
			return StatusOptimal
		}

		alpha := s.colBuf
		s.core.column(enter, alpha)
		leaveRow, bound, step, ok := s.ratioTest(enter, dir, alpha)
		if !ok {
			if s.inPhase1 {
				// The phase-1 objective is bounded below by zero, so an
				// unbounded ray indicates numerical trouble; refresh and
				// retry once before giving up.
				s.computeReducedCosts()
				sinceRefresh = 0
				enter2, dir2 := s.chooseEntering()
				if enter2 < 0 {
					return StatusOptimal
				}
				s.core.column(enter2, alpha)
				leaveRow, bound, step, ok = s.ratioTest(enter2, dir2, alpha)
				if !ok {
					return StatusUnbounded
				}
				enter, dir = enter2, dir2
			} else {
				return StatusUnbounded
			}
		}

		s.iterations++
		sinceRefresh++
		if step <= tol {
			s.degenerate++
			if s.degenerate > 2*(s.m+s.n) {
				s.useBland = true
			}
		} else {
			s.degenerate = 0
			if s.useBland {
				s.useBland = false
			}
		}

		if leaveRow < 0 {
			// Bound flip: the entering variable moves to its other bound
			// without any basis change.
			s.applyBoundFlip(enter, dir, step, alpha)
			continue
		}
		s.core.pivotRow(leaveRow, s.prowBuf)
		s.pivot(enter, dir, leaveRow, bound, step, alpha)
	}
}

// chooseEntering returns the entering column and its movement direction
// (+1 increase, −1 decrease), or (-1, 0) when the current basis is optimal.
// Pricing is Dantzig's rule — the largest reduced-cost magnitude wins, lowest
// index on ties — except in anti-cycling mode, which takes Bland's rule (the
// first eligible index) until a nondegenerate pivot ends the run. Both are
// deterministic, so the pivot sequence is a pure function of the problem.
func (s *simplex) chooseEntering() (int, float64) {
	best := -1
	bestScore := 0.0
	bestDir := 0.0
	for j := 0; j < s.n; j++ {
		st := s.status[j]
		if st == BasisBasic {
			continue
		}
		if s.lower[j] == s.upper[j] && st != BasisFree {
			continue // fixed variable can never move
		}
		d := s.reduced[j]
		var score, dir float64
		switch st {
		case BasisAtLower:
			if d < -tol {
				score, dir = -d, 1
			}
		case BasisAtUpper:
			if d > tol {
				score, dir = d, -1
			}
		case BasisFree:
			if d < -tol {
				score, dir = -d, 1
			} else if d > tol {
				score, dir = d, -1
			}
		}
		if dir == 0 {
			continue
		}
		if s.useBland {
			// Bland's rule: first eligible index.
			return j, dir
		}
		if score > bestScore {
			bestScore = score
			best = j
			bestDir = dir
		}
	}
	return best, bestDir
}

// ratioTest determines how far the entering variable can move along its
// tableau column alpha = B⁻¹·A_enter. It returns the blocking basic row (or
// −1 for a bound flip of the entering variable itself), which bound the
// leaving variable hits (BasisAtLower or BasisAtUpper), the step length, and ok=false
// when the problem is unbounded in that direction.
func (s *simplex) ratioTest(enter int, dir float64, alpha []float64) (leaveRow int, bound BasisStatus, step float64, ok bool) {
	const pivTol = 1e-9
	step = math.Inf(1)
	leaveRow = -1
	bound = BasisAtLower

	// The entering variable is limited by the distance to its own opposite
	// bound (a bound flip).
	if !math.IsInf(s.lower[enter], -1) && !math.IsInf(s.upper[enter], 1) {
		step = s.upper[enter] - s.lower[enter]
	}

	for i := 0; i < s.m; i++ {
		a := alpha[i]
		if math.Abs(a) < pivTol {
			continue
		}
		b := s.basis[i]
		delta := dir * a
		var limit float64
		var hit BasisStatus
		if delta > 0 {
			// Basic variable decreases toward its lower bound.
			if math.IsInf(s.lower[b], -1) {
				continue
			}
			limit = (s.beta[i] - s.lower[b]) / delta
			hit = BasisAtLower
		} else {
			// Basic variable increases toward its upper bound.
			if math.IsInf(s.upper[b], 1) {
				continue
			}
			limit = (s.upper[b] - s.beta[i]) / (-delta)
			hit = BasisAtUpper
		}
		if limit < -tol {
			limit = 0
		}
		if limit < step-1e-12 {
			step = limit
			leaveRow = i
			bound = hit
		} else if leaveRow >= 0 && math.Abs(limit-step) <= 1e-12 {
			if s.lexPivoting {
				// Bland's leaving rule: the lowest basic column index among
				// tied rows, so the canonicalization pass cannot cycle
				// through the bases of a degenerate vertex.
				if b < s.basis[leaveRow] {
					leaveRow = i
					bound = hit
				}
			} else if math.Abs(a) > math.Abs(alpha[leaveRow]) {
				// Tie-break on the larger pivot element for numerical
				// stability.
				leaveRow = i
				bound = hit
			}
		}
	}
	if math.IsInf(step, 1) {
		return -1, BasisAtLower, 0, false
	}
	if step < 0 {
		step = 0
	}
	return leaveRow, bound, step, true
}

// applyBoundFlip moves a nonbasic variable from one finite bound to the other
// and updates the basic values along its tableau column alpha.
func (s *simplex) applyBoundFlip(enter int, dir, step float64, alpha []float64) {
	if step != 0 {
		for i := 0; i < s.m; i++ {
			if a := alpha[i]; a != 0 {
				s.beta[i] -= dir * step * a
			}
		}
	}
	if dir > 0 {
		s.status[enter] = BasisAtUpper
	} else {
		s.status[enter] = BasisAtLower
	}
	s.fresh = false
}

// pivot performs a basis exchange: the entering column becomes basic in
// leaveRow, the previous basic variable of that row leaves at the given
// bound. alpha is the entering tableau column under the pre-pivot basis (the
// one the ratio test ran on), and the caller has left that basis's tableau
// row leaveRow in s.prowBuf unless the entering reduced cost is exactly
// zero: the dual simplex computed it for its ratio test, the primal passes
// compute it just before the call. The driver updates the basic values and
// the reduced-cost row (one rank-one update from the pivot row, a no-op
// for a zero entering reduced cost) itself; the core then installs the
// exchange — one appended eta, with a possible refactorization. A core-side
// rebuild replaces beta and the row assignment, so the reduced costs are
// recomputed from scratch when it happens.
func (s *simplex) pivot(enter int, dir float64, leaveRow int, bound BasisStatus, step float64, alpha []float64) {
	leaving := s.basis[leaveRow]

	// New value of the entering variable.
	enterVal := s.nonbasicValue(enter) + dir*step

	// Update the other basic values.
	for i := 0; i < s.m; i++ {
		if i == leaveRow {
			continue
		}
		if a := alpha[i]; a != 0 {
			s.beta[i] -= dir * step * a
		}
	}

	// Rank-one update of the reduced costs from the pivot row under the
	// pre-pivot basis, normalized by the pivot element.
	if dEnter := s.reduced[enter]; dEnter != 0 {
		prow := s.prowBuf
		inv := 1 / prow[enter]
		for j := 0; j < s.n; j++ {
			prow[j] *= inv
		}
		prow[enter] = 1
		for j := 0; j < s.n; j++ {
			s.reduced[j] -= dEnter * prow[j]
		}
	}
	s.reduced[enter] = 0

	// Book-keeping: statuses, basis, values.
	s.basis[leaveRow] = enter
	s.status[enter] = BasisBasic
	s.beta[leaveRow] = enterVal
	if math.IsInf(s.lower[leaving], -1) && math.IsInf(s.upper[leaving], 1) {
		s.status[leaving] = BasisFree
	} else {
		s.status[leaving] = bound
	}

	s.fresh = s.core.applyPivot(enter, leaveRow, alpha)
	if s.fresh {
		s.refactorizations++
		s.computeReducedCosts()
	}
}

// extract returns the structural variable values of the current basis.
func (s *simplex) extract() []float64 {
	x := make([]float64, s.nStruct)
	for j := 0; j < s.nStruct && j < len(s.status); j++ {
		if s.status[j] != BasisBasic {
			x[j] = s.nonbasicValue(j)
		}
	}
	for i, j := range s.basis {
		if j < s.nStruct {
			x[j] = s.beta[i]
		}
	}
	return x
}
