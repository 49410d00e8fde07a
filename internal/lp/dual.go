package lp

import (
	"math"
	"math/bits"
)

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
// an FTRAN, and a rejected column a move has touched resumes its FTRAN from
// the values it had then (see lexMemo): the scan returns exactly the move a
// full rescan would.
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
			// every remembered entry stays as it is.
			s.applyBoundFlip(enter, dir, step, s.colBuf)
		} else {
			// pivot reads the row only for the reduced-cost update, which a
			// column entering at reduced cost exactly zero skips.
			if s.reduced[enter] != 0 {
				s.core.pivotRow(leaveRow, s.prowBuf)
			}
			s.pivot(enter, dir, leaveRow, bound, step, s.colBuf)
			if s.fresh {
				// The pivot rebuilt the factorization, which may also
				// permute the rows: no remembered entry survives.
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
// is skipped after the reduced-cost check if no pivot has touched it since;
// if one has, its remembered values are brought up to date through the
// update etas added since instead of a whole FTRAN. A column whose
// lexDescending test fails in every allowed direction is remembered (again),
// with its values. A column that passes the test is not, even when it fails
// the ratio test (that test reads the basic values, which bound flips move),
// and its stale entry, if any, is forgotten.
func (s *simplex) findLexDescent(memo *lexMemo) (enter int, dir float64, leaveRow int, bound BasisStatus, step float64) {
	for j := 0; j < s.n; j++ {
		if !s.lexEligible(j) {
			continue
		}
		k := memo.entry(j)
		if k >= 0 && !memo.stale(k) {
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
		if k >= 0 {
			s.core.columnSince(j, alpha, memo.restore(k, alpha))
		} else {
			s.core.column(j, alpha)
		}
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
			memo.forget(j)
			return j, d, lr, b, stp
		}
		if descends {
			memo.forget(j)
		} else {
			memo.reject(j, alpha, s.core.stamp())
		}
	}
	return -1, 0, 0, BasisAtLower, 0
}

// lexEligible reports whether column j may enter a lex move: nonbasic, not
// fixed, with zero reduced cost.
func (s *simplex) lexEligible(j int) bool {
	return s.status[j] != BasisBasic && s.lower[j] != s.upper[j] && math.Abs(s.reduced[j]) <= tol
}

// lexMemo remembers the columns findLexDescent rejected, once armed: for
// each, the rows where its tableau column was exactly nonzero, its values
// there, and the core's stamp when they were taken. An entry is fresh while
// no pivot has touched its column since, and a later scan skips it without
// an FTRAN; a stale entry gives that scan a head start on one.
//
// Skipping is exact. A pivot in row r appends one eta, and FTRAN skips that
// eta wherever the column it solves is zero in row r, so a column zero there
// comes out bit for bit as before. The basis changed only in row r, which
// lexDescending passes over for that column, so the rejection stands. (The
// dense test oracle's elimination leaves such a column unchanged too, up to
// the sign of a zero, which lexDescending ignores.) A pivot therefore makes
// the entries nonzero in its row stale.
//
// Resuming is exact too. FTRAN applies the factor and then the update etas
// strictly in sequence, and a rejected column's values are those of the
// factor and the stamp's first update etas. Taking them through the etas
// added since (tableauCore.columnSince) gives a whole FTRAN's values bit for
// bit, except that a row restored as +0 may come out +0 where a whole FTRAN
// leaves −0: lexDescending, ratioTest, pivot and pushDense all ignore the
// sign of a zero. A rebuild starts a new factor and chain, so it clears
// the memo.
//
// Entry storage goes only to columns actually rejected. A forgotten
// column's entry stays unused until the memo is cleared; after that, the
// entries, their bitsets and their value slices' capacity are reused.
type lexMemo struct {
	words   int        // bitset words per entry, ⌈m/64⌉
	slot    []int32    // per column: 1 + its entry, 0 for none; nil until armed
	entries []lexEntry // one per rejected column since the last clear
	fresh   []int32    // the entries no pivot has touched since
	bits    []uint64   // the bitsets, words each, one per entry
}

// lexEntry is one remembered column: its nonzero values in ascending row
// order (the rows its bitset marks), the core stamp they belong to, and
// whether a pivot has touched the column since.
type lexEntry struct {
	col   int32
	stale bool
	stamp int
	vals  []float64
}

func (mm *lexMemo) armed() bool { return mm.slot != nil }

// entry returns column j's entry, or −1 when j is not remembered.
func (mm *lexMemo) entry(j int) int {
	if !mm.armed() {
		return -1
	}
	return int(mm.slot[j]) - 1
}

func (mm *lexMemo) stale(k int) bool { return mm.entries[k].stale }

func (mm *lexMemo) rows(k int) []uint64 { return mm.bits[k*mm.words : (k+1)*mm.words] }

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
	mm.slot = make([]int32, s.n)
	mm.entries = make([]lexEntry, 0, eligible)
	mm.fresh = make([]int32, 0, eligible)
	mm.bits = make([]uint64, 0, eligible*mm.words)
}

// reject remembers column j, whose tableau column at core stamp stamp is
// alpha, once armed, as a fresh entry: in place of its stale one if it has
// one.
func (mm *lexMemo) reject(j int, alpha []float64, stamp int) {
	if !mm.armed() {
		return
	}
	k := int(mm.slot[j]) - 1
	if k < 0 {
		k = len(mm.entries)
		if k*mm.words < len(mm.bits) {
			mm.entries = mm.entries[:k+1] // an entry from before the last clear
		} else {
			mm.entries = append(mm.entries, lexEntry{})
			mm.bits = append(mm.bits, make([]uint64, mm.words)...)
		}
		mm.slot[j] = int32(k + 1)
	}
	rows := mm.rows(k)
	nnz := 0
	for w := range rows {
		// One word at a time, kept in a register, and without a branch:
		// this loop runs once per rejected column over all m rows. With the
		// sign cleared, x is nonzero exactly where a is, and then x|−x has
		// its top bit set.
		var word uint64
		for i, a := range alpha[w<<6 : min(w<<6+64, len(alpha))] {
			x := math.Float64bits(a) &^ (1 << 63)
			word |= (x | -x) >> 63 << i
		}
		rows[w] = word
		nnz += bits.OnesCount64(word)
	}
	e := &mm.entries[k]
	if cap(e.vals) < nnz {
		e.vals = make([]float64, nnz)
	}
	vals := e.vals[:nnz]
	n := 0
	for w, word := range rows {
		for ; word != 0; word &= word - 1 {
			vals[n] = alpha[w<<6|bits.TrailingZeros64(word)]
			n++
		}
	}
	*e = lexEntry{col: int32(j), stamp: stamp, vals: vals}
	mm.fresh = append(mm.fresh, int32(k))
}

// restore writes entry k's column, +0 in the rows it does not mark, into
// dst and returns the stamp the values belong to.
func (mm *lexMemo) restore(k int, dst []float64) int {
	clear(dst)
	e := &mm.entries[k]
	n := 0
	for w, word := range mm.rows(k) {
		for ; word != 0; word &= word - 1 {
			dst[w<<6|bits.TrailingZeros64(word)] = e.vals[n]
			n++
		}
	}
	return e.stamp
}

// pivoted marks stale the fresh entries a pivot in row r may have changed:
// those nonzero in row r. The pivot's own columns need no check: the
// entering one passed its test, so it was forgotten, and the leaving one was
// basic.
func (mm *lexMemo) pivoted(r int) {
	w, bit := r>>6, uint64(1)<<(r&63)
	kept := mm.fresh[:0]
	for _, k := range mm.fresh {
		if mm.bits[int(k)*mm.words+w]&bit == 0 {
			kept = append(kept, k)
		} else {
			mm.entries[k].stale = true
		}
	}
	mm.fresh = kept
}

// forget drops column j's entry, if it has one (a stale one: a scan never
// reads a fresh entry's column).
func (mm *lexMemo) forget(j int) {
	if mm.armed() {
		mm.slot[j] = 0
	}
}

// clear forgets every remembered column.
func (mm *lexMemo) clear() {
	for _, e := range mm.entries {
		mm.slot[e.col] = 0
	}
	mm.entries = mm.entries[:0]
	mm.fresh = mm.fresh[:0]
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
