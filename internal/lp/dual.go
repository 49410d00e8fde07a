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
		// The pivot row serves the ratio test and then the pivot itself.
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
func (s *simplex) chooseLeaving() (row int, target float64, bound BasisStatus) {
	row = -1
	worst := tol
	for i := 0; i < s.m; i++ {
		b := s.basis[i]
		if v := s.lower[b] - s.beta[i]; v > worst {
			row, target, bound = i, s.lower[b], BasisAtLower
			if s.useBland {
				return
			}
			worst = v
		}
		if v := s.beta[i] - s.upper[b]; v > worst {
			row, target, bound = i, s.upper[b], BasisAtUpper
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
		if st == BasisBasic || s.lower[j] == s.upper[j] {
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
		case BasisAtLower:
			if below != (a < 0) {
				continue
			}
		case BasisAtUpper:
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
//
// Every scan restarts at column 0, but from the second scan on, the columns
// an earlier scan rejected and no move has touched since are skipped without
// an FTRAN (see lexMemo): the scan returns exactly the move a full rescan
// would.
//
// The context is checked before every move rather than every
// cancelCheckEvery pivots, because one move can scan every column with an
// FTRAN. It reports false when the context fired and the pass stopped short
// of the lex-minimum.
func (s *simplex) lexCanonicalize() bool {
	maxMoves := 4 * (s.m + s.n)
	if maxMoves < 64 {
		maxMoves = 64
	}
	var memo lexMemo
	s.lexPivoting = true
	defer func() { s.lexPivoting = false }()
	for moves := 0; moves < maxMoves; moves++ {
		if s.ctx != nil && s.ctx.Err() != nil {
			return false
		}
		enter, dir, leaveRow, bound, step := s.findLexDescent(&memo)
		if enter < 0 {
			break
		}
		// findLexDescent leaves the accepted column's tableau column in
		// s.colBuf, which is exactly what the move application needs.
		s.iterations++
		if leaveRow < 0 {
			// A bound flip changes neither the basis nor the factorization:
			// every memoised column stays valid.
			s.applyBoundFlip(enter, dir, step, s.colBuf)
		} else {
			s.core.pivotRow(leaveRow, s.prowBuf)
			s.pivot(enter, dir, leaveRow, bound, step, s.colBuf)
			if s.fresh {
				// The pivot rebuilt the factorization, which may also
				// permute the rows: no remembered column survives.
				memo.clear()
			} else {
				memo.pivoted(leaveRow)
			}
		}
		if !memo.armed() {
			// Remember rejections only once a move has happened. About
			// half of all passes end after their first scan, and then
			// nothing that scan remembered would ever be read; the second
			// scan skips few of the first scan's rejections anyway.
			memo.arm(s)
		}
	}
	return true
}

// findLexDescent scans nonbasic columns with zero reduced cost, in index
// order, for a bounded move whose direction lexicographically decreases the
// structural solution vector; the first such move wins (Bland's entering
// rule for the implicit lex objective). A column memo remembers as rejected
// is skipped after the reduced-cost check, and a column whose lexDescending
// test fails in every allowed direction is remembered. A column that passes
// the test but fails the ratio test is not: that test reads the basic values,
// which bound flips move.
func (s *simplex) findLexDescent(memo *lexMemo) (enter int, dir float64, leaveRow int, bound BasisStatus, step float64) {
	for j := 0; j < s.n; j++ {
		if !s.lexEligible(j) || memo.has(j) {
			continue
		}
		var dirs []float64
		switch s.status[j] {
		case BasisAtLower:
			dirs = []float64{1}
		case BasisAtUpper:
			dirs = []float64{-1}
		case BasisFree:
			dirs = []float64{1, -1}
		}
		alpha := s.colBuf
		s.core.column(j, alpha)
		descends := false
		for _, d := range dirs {
			if !s.lexDescending(j, d, alpha) {
				continue
			}
			descends = true
			lr, b, stp, ok := s.ratioTest(j, d, alpha)
			if !ok {
				continue // unbounded ray: the lex objective has no minimum here
			}
			if lr < 0 && stp <= tol {
				continue // zero-width bound flip changes nothing
			}
			return j, d, lr, b, stp
		}
		if !descends {
			memo.reject(j, alpha)
		}
	}
	return -1, 0, 0, BasisAtLower, 0
}

// lexEligible reports whether column j may enter a lex move: nonbasic, not
// fixed, with zero reduced cost.
func (s *simplex) lexEligible(j int) bool {
	return s.status[j] != BasisBasic && s.lower[j] != s.upper[j] && math.Abs(s.reduced[j]) <= tol
}

// lexMemo remembers the columns findLexDescent rejected, once armed, that no
// pivot has touched since, with the rows where each one's tableau column is
// exactly nonzero, so a later scan can skip them without an FTRAN.
//
// Skipping is exact. A pivot in row r appends one eta, and FTRAN skips that
// eta wherever the column it solves is zero in row r, so a column zero there
// comes out bit for bit as before. The basis changed only in row r, which
// lexDescending passes over for that column, so the rejection stands. (The
// dense test oracle's elimination leaves such a column unchanged too, up to
// the sign of a zero, which lexDescending ignores.) A pivot therefore drops
// the columns nonzero in its row; a rebuild drops them all.
//
// Bitset storage goes only to columns actually rejected, and a dropped
// column's bitset is reused by the next rejection.
type lexMemo struct {
	words int        // bitset words per column, ⌈m/64⌉
	held  []uint64   // bit j: column j is remembered; nil until armed
	live  []lexEntry // the remembered columns
	free  []int32    // bitsets of dropped columns, for reuse
	bits  []uint64   // the bitsets, words each: live's and free's
}

// lexEntry is one remembered column and the index of its row bitset.
type lexEntry struct{ col, set int32 }

func (mm *lexMemo) armed() bool { return mm.held != nil }

func (mm *lexMemo) has(j int) bool { return mm.armed() && mm.held[j>>6]&(1<<(j&63)) != 0 }

// arm makes the memo remember the rejections from here on. Nearly every
// column a later scan rejects is eligible now, so sizing the arenas for those
// keeps them from growing.
func (mm *lexMemo) arm(s *simplex) {
	eligible := 0
	for j := 0; j < s.n; j++ {
		if s.lexEligible(j) {
			eligible++
		}
	}
	mm.words = (s.m + 63) / 64
	mm.held = make([]uint64, (s.n+63)/64)
	mm.live = make([]lexEntry, 0, eligible)
	mm.bits = make([]uint64, 0, eligible*mm.words)
}

// reject remembers column j, whose tableau column is alpha, once armed.
func (mm *lexMemo) reject(j int, alpha []float64) {
	if !mm.armed() {
		return
	}
	var k int32
	if n := len(mm.free); n > 0 {
		k, mm.free = mm.free[n-1], mm.free[:n-1]
	} else {
		k = int32(len(mm.live))
		mm.bits = append(mm.bits, make([]uint64, mm.words)...)
	}
	rows := mm.bits[int(k)*mm.words : int(k+1)*mm.words]
	for w := range rows {
		// One word at a time, kept in a register: this loop runs once per
		// rejected column over all m rows.
		var word uint64
		for i, a := range alpha[w<<6 : min(w<<6+64, len(alpha))] {
			if a != 0 {
				word |= 1 << i
			}
		}
		rows[w] = word
	}
	mm.held[j>>6] |= 1 << (j & 63)
	mm.live = append(mm.live, lexEntry{int32(j), k})
}

// pivoted drops the columns a pivot in row r may have changed: those nonzero
// in row r. The pivot's own columns need no check: the entering one passed
// its test, so it was never remembered, and the leaving one was basic.
func (mm *lexMemo) pivoted(r int) {
	w, bit := r>>6, uint64(1)<<(r&63)
	kept := mm.live[:0]
	for _, e := range mm.live {
		if mm.bits[int(e.set)*mm.words+w]&bit == 0 {
			kept = append(kept, e)
		} else {
			mm.drop(e)
		}
	}
	mm.live = kept
}

// clear drops every remembered column.
func (mm *lexMemo) clear() {
	for _, e := range mm.live {
		mm.drop(e)
	}
	mm.live = mm.live[:0]
}

// drop forgets e's column and frees its bitset; the caller removes e from
// live.
func (mm *lexMemo) drop(e lexEntry) {
	mm.held[e.col>>6] &^= 1 << (e.col & 63)
	mm.free = append(mm.free, e.set)
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
