package lp

import "math"

// runDual executes the bounded-variable dual simplex from an installed,
// dual-feasible basis: while some basic variable violates a bound, the worst
// violator leaves the basis toward the violated bound and the dual ratio test
// picks the entering column that keeps the reduced costs sign-feasible. When
// no violation remains the basis is primal- and dual-feasible, i.e. optimal.
//
// An exhausted ratio test (no eligible entering column) proves the primal
// problem infeasible — for a branch-and-bound child that is the common "this
// branch is empty" outcome, reached without any phase-1 work.
func (s *simplex) runDual() Status {
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

		r, target, bound := s.chooseLeaving()
		if r < 0 {
			return StatusOptimal
		}
		prow := s.prowBuf
		s.core.pivotRow(r, prow)
		enter, ratio, ok := s.dualRatioTest(r, target, prow)
		if !ok {
			return StatusInfeasible
		}

		delta := (s.beta[r] - target) / prow[enter]
		dir, step := 1.0, delta
		if delta < 0 {
			dir, step = -1, -delta
		}
		alpha := s.colBuf
		s.core.column(enter, alpha)

		s.iterations++
		sinceRefresh++
		// A zero dual ratio means no dual-objective progress; a long run of
		// those is the dual analogue of primal stalling.
		if ratio <= 1e-12 {
			s.degenerate++
			if s.degenerate > 2*(s.m+s.n) {
				s.useBland = true
			}
		} else {
			s.degenerate = 0
			s.useBland = false
		}
		s.pivot(enter, dir, r, bound, step, alpha)
	}
}

// chooseLeaving returns the row of the basic variable with the largest bound
// violation, the bound value it must move to, and the status it leaves at —
// or row −1 when the basis is primal-feasible. In anti-cycling mode the
// lowest violating row wins instead of the worst one.
func (s *simplex) chooseLeaving() (row int, target float64, bound varStatus) {
	row = -1
	worst := tol
	for i := 0; i < s.m; i++ {
		b := s.basis[i]
		if v := s.lower[b] - s.beta[i]; v > worst {
			row, target, bound = i, s.lower[b], atLower
			if s.useBland {
				return
			}
			worst = v
		}
		if v := s.beta[i] - s.upper[b]; v > worst {
			row, target, bound = i, s.upper[b], atUpper
			if s.useBland {
				return
			}
			worst = v
		}
	}
	return
}

// dualRatioTest picks the entering column for leaving row r (whose tableau
// row is in row) whose basic variable moves to target: among the columns
// whose sign allows the move, the one minimizing |d/alpha| keeps every
// reduced cost sign-feasible after the pivot. Ties break on the larger
// |alpha| (stability) then the lower index; anti-cycling mode breaks ties on
// the lower index alone.
func (s *simplex) dualRatioTest(r int, target float64, row []float64) (enter int, ratio float64, ok bool) {
	const pivTol = 1e-9
	below := s.beta[r] < target // the leaving basic variable must increase
	enter = -1
	bestRatio := math.Inf(1)
	bestAbs := 0.0
	for j := 0; j < s.n; j++ {
		st := s.status[j]
		if st == inBasis || s.lower[j] == s.upper[j] {
			continue
		}
		a := row[j]
		if math.Abs(a) < pivTol {
			continue
		}
		// The entering variable moves by dx = (beta_r − target)/a. A column
		// at its lower bound may only increase (dx > 0), at its upper bound
		// only decrease; free columns move either way. With the numerator's
		// sign fixed by `below`, eligibility reduces to the sign of a.
		switch st {
		case atLower:
			if below != (a < 0) {
				continue
			}
		case atUpper:
			if below != (a > 0) {
				continue
			}
		}
		rj := math.Abs(s.reduced[j] / a)
		switch {
		case rj < bestRatio-1e-12:
			// Strictly better: accept.
		case rj <= bestRatio+1e-12:
			// Tie: keep the earlier index in anti-cycling mode, otherwise
			// prefer the larger pivot element.
			if s.useBland || math.Abs(a) <= bestAbs {
				continue
			}
		default:
			continue
		}
		enter = j
		bestRatio = rj
		bestAbs = math.Abs(a)
	}
	return enter, bestRatio, enter >= 0
}

// lexCanonicalize runs after optimality: among the optimal vertices reachable
// by moving along zero-reduced-cost directions, it descends to the
// lexicographically smallest one (first structural coordinate that changes
// must decrease). Degenerate LPs have many optimal vertices and the primal
// and dual algorithms land on different ones; this pass makes the reported
// solution a property of the optimal face rather than of the pivot path, so
// warm- and cold-started solves agree on X.
//
// The descent is a simplex on the implicit objective Σ εʲ·xⱼ (ε→0⁺) restricted
// to the optimal face: a column is eligible when its real reduced cost is zero
// and its direction lex-decreases X to first order. Degenerate pivots (step 0)
// are taken too — the lex-minimum of a degenerate face is often reachable only
// through a basis exchange at the same vertex, and refusing those strands
// different pivot paths at different vertices. Bland-style index rules on both
// the entering column and the leaving row keep the pass from cycling.
func (s *simplex) lexCanonicalize() {
	maxMoves := 4 * (s.m + s.n)
	if maxMoves < 64 {
		maxMoves = 64
	}
	s.lexPivoting = true
	for moves := 0; moves < maxMoves; moves++ {
		enter, dir, leaveRow, bound, step := s.findLexDescent()
		if enter < 0 {
			break
		}
		// findLexDescent leaves the accepted column's tableau column in
		// s.colBuf, which is exactly what the move application needs.
		s.iterations++
		if leaveRow < 0 {
			s.applyBoundFlip(enter, dir, step, s.colBuf)
		} else {
			s.pivot(enter, dir, leaveRow, bound, step, s.colBuf)
		}
	}
	s.lexPivoting = false
}

// findLexDescent scans nonbasic columns with zero reduced cost, in index
// order, for a bounded move whose direction lexicographically decreases the
// structural solution vector; the first such move wins (Bland's entering
// rule for the implicit lex objective).
func (s *simplex) findLexDescent() (enter int, dir float64, leaveRow int, bound varStatus, step float64) {
	for j := 0; j < s.n; j++ {
		st := s.status[j]
		if st == inBasis || s.lower[j] == s.upper[j] {
			continue
		}
		if math.Abs(s.reduced[j]) > tol {
			continue
		}
		var dirs []float64
		switch st {
		case atLower:
			dirs = []float64{1}
		case atUpper:
			dirs = []float64{-1}
		case atFree:
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
				continue // unbounded ray: the lex objective has no minimum here
			}
			if lr < 0 && stp <= tol {
				continue // zero-width bound flip changes nothing
			}
			return j, d, lr, b, stp
		}
	}
	return -1, 0, 0, atLower, 0
}

// lexDescending reports whether moving the entering column (tableau column
// alpha) in direction dir strictly decreases the structural solution in
// lexicographic order to first order: the lowest-index structural variable
// with a nonzero rate of change must decrease. The test reads per-unit rates
// rather than step-scaled deltas, so it is independent of how far the move is
// later allowed to travel — degenerate moves count, which is what lets the
// descent walk through the bases of a degenerate vertex instead of stalling
// on it.
func (s *simplex) lexDescending(enter int, dir float64, alpha []float64) bool {
	const rateTol = 1e-9
	lead := s.nStruct
	var leadRate float64
	if enter < s.nStruct {
		lead = enter
		leadRate = dir
	}
	for i := 0; i < s.m; i++ {
		b := s.basis[i]
		if b >= lead {
			continue
		}
		a := alpha[i]
		if math.Abs(a) <= rateTol {
			continue
		}
		lead = b
		leadRate = -dir * a
	}
	return lead < s.nStruct && leadRate < 0
}
