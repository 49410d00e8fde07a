package lp

import (
	"math"
	"sync/atomic"
)

// BasisStatus is the role of one column, in the solver and in an exported
// Basis.
type BasisStatus int8

// Column roles. Nonbasic columns sit at one of their bounds (or at zero when
// free); basic columns take whatever value satisfies the constraints.
const (
	BasisAtLower BasisStatus = iota
	BasisAtUpper
	BasisFree
	BasisBasic
)

// Basis is a snapshot of a simplex basis, detached from any solver state: the
// basic column of every tableau row plus the status of every column. Columns
// are the problem's structural variables followed by one slack per
// constraint; artificial columns never appear (a solve whose optimal basis
// still contains an artificial exports no basis at all).
//
// A Basis exported from one solve can warm-start another solve of the same
// problem through Options.WarmBasis, as long as only bounds changed — which
// is exactly the shape of a branch-and-bound child node.
//
// An exported Basis also carries the LU factorization its solve finished
// with. Only a solve of the same *Problem adopts it, and then builds no
// factorization of its own for the start: the carried one is bit for bit
// what that build would produce, so adopting changes no result. Editing the
// problem's constraint rows in place between the two solves is not allowed.
// Any other solve — another problem, or a Basis assembled from the exported
// fields, such as &Basis{Basic: b.Basic, Status: b.Status}, which drops the
// factorization — rebuilds it from the raw data. WithoutFactor drops it too,
// but keeps its size, so that the rebuild can size its arena at once.
//
// A holder done with a Basis may Release it, which hands the factorization's
// memory back to the Problem's workspace for later solves to build into.
//
// A Basis is read-only to the solver and, but for Release, to its holder:
// the solver never writes it, so one Basis may seed many concurrent solves,
// and its exported fields must not be modified after export.
type Basis struct {
	Basic  []int32       // basic column per row, len == number of constraints
	Status []BasisStatus // per column, len == variables + constraints

	factor    atomic.Pointer[basisFactor] // nil unless exported by a sparse-core solve, or once released
	luEntries int                         // off-diagonal entries of the exported factor
}

// WithoutFactor returns b without the factorization it carries, for a holder
// that keeps b long enough for that memory to matter; a nil b yields nil. A
// warm start from the result rebuilds the factorization, sized by the entry
// count of the one dropped (the rebuild is bit for bit the same
// factorization).
func (b *Basis) WithoutFactor() *Basis {
	if b == nil {
		return nil
	}
	return &Basis{Basic: b.Basic, Status: b.Status, luEntries: b.luEntries}
}

// Release drops the factorization b carries, for a holder that will not
// warm-start from b again, and hands its memory back to the workspace of the
// Problem that built it once nothing else uses it: no other Basis carries
// it (a warm solve that makes no pivot exports the factorization it
// adopted) and no running solve has adopted it. A warm start from b after
// Release rebuilds the factorization, as from WithoutFactor, and so may a
// solve that raced with it; either way every result is the same, bar the
// Refactorizations count. Release is safe to call concurrently with solves
// reading b and more than once; a nil b is a no-op.
func (b *Basis) Release() {
	if b == nil {
		return
	}
	f := b.factor.Swap(nil)
	if f == nil || f.refs.Add(-1) != 0 {
		return
	}
	if ws := f.prob.ws.Swap(nil); ws != nil {
		f.recycle(ws)
		f.prob.ws.Store(ws)
	}
}

// basisFactor is the factorization an optimal sparse-core solve finished
// with, carried on its exported Basis. Every field but refs is shared with
// that solve, which has ended, and is read-only from then on.
//
// refs counts the Bases that carry f and the running solves that adopted
// it. When it reaches zero nothing can reach lu or rows any more (a solve
// adopts only after raising a nonzero count, and basisFactors are never
// reused), so both go back to prob's workspace. The matrix is never
// recycled: the factorizations of later solves that adopted f share it.
type basisFactor struct {
	prob *Problem
	mat  cscMatrix // structural and slack columns
	lu   *etaFile  // the factorization, no update etas
	rows []int     // basic column per row: lu's row assignment
	refs atomic.Int32
}

// acquire takes a reference on f for an adopting solve, unless f was
// already given up.
func (f *basisFactor) acquire() bool {
	for n := f.refs.Load(); n > 0; n = f.refs.Load() {
		if f.refs.CompareAndSwap(n, n+1) {
			return true
		}
	}
	return false
}

// drop gives up an adopting solve's reference on f, recycling f into ws,
// the workspace of the solve (of f's Problem), if that was the last one.
func (f *basisFactor) drop(ws *workspace) {
	if f.refs.Add(-1) == 0 {
		f.recycle(ws)
	}
}

// recycle files f's factor arena and row assignment in ws once nothing
// reaches f.
func (f *basisFactor) recycle(ws *workspace) {
	ws.putFactor(f.lu)
	put(&ws.basis, f.rows)
}

// adoptableBy reports whether solver s may adopt f for the imported basis b:
// s runs the sparse core on the same *Problem, and b still lists f's basic
// columns in f's row order.
func (f *basisFactor) adoptableBy(s *simplex, b *Basis) bool {
	if f == nil || s.newCore != nil || f.prob != s.prob || len(f.rows) != len(b.Basic) {
		return false
	}
	for i, j := range f.rows {
		if int(b.Basic[i]) != j {
			return false
		}
	}
	return true
}

// compatible reports whether the basis dimensions match a problem with m
// constraints and nStruct structural variables, every status is one of the
// four roles, every basic column is in range and marked basic, no column is
// basic twice, and exactly the basic columns carry BasisBasic. Its scratch
// comes from ws.
func (b *Basis) compatible(m, nStruct int, ws *workspace) bool {
	if b == nil || len(b.Basic) != m || len(b.Status) != nStruct+m {
		return false
	}
	basicStatuses := 0
	for _, st := range b.Status {
		if st < BasisAtLower || st > BasisBasic {
			return false
		}
		if st == BasisBasic {
			basicStatuses++
		}
	}
	if basicStatuses != m {
		return false
	}
	seen := take(&ws.seen, nStruct+m, nStruct+m)
	defer put(&ws.seen, seen)
	for _, c := range b.Basic {
		if c < 0 || int(c) >= nStruct+m || seen[c] || b.Status[c] != BasisBasic {
			return false
		}
		seen[c] = true
	}
	return true
}

// exportBasis snapshots the current basis, or returns nil when an artificial
// column is still basic (a child solve could not reconstruct it). A sparse
// core whose factorization is fresh — built for exactly this basis — attaches
// it to the snapshot.
func (s *simplex) exportBasis() *Basis {
	for _, j := range s.basis {
		if j >= s.artStart {
			return nil
		}
	}
	b := &Basis{
		Basic:  make([]int32, s.m),
		Status: make([]BasisStatus, s.nStruct+s.m),
	}
	for i, j := range s.basis {
		b.Basic[i] = int32(j)
	}
	copy(b.Status, s.status)
	if c, ok := s.core.(*sparseCore); ok && s.fresh {
		b.factor.Store(c.carried())
		b.luEntries = len(c.factor.idx)
	}
	return b
}

// installBasis loads an exported basis into a freshly constructed solver
// (newSimplexBase state: bounds and costs set, no artificials), adopting the
// factorization the basis carries when it may (see Basis) and building one
// otherwise. It returns false — leaving the solver unusable — when the basis
// does not fit the problem, its basis matrix is singular under the
// deterministic refactorization, or the resulting reduced costs are not
// dual-feasible; the caller then falls back to a cold primal solve.
func (s *simplex) installBasis(b *Basis) bool {
	if !b.compatible(s.m, s.nStruct, s.ws) {
		return false
	}
	s.basis = take(&s.ws.basis, s.m, s.m)
	for i, c := range b.Basic {
		s.basis[i] = int(c)
	}
	for j, st := range b.Status {
		if st != BasisBasic {
			st = s.normalizeNonbasic(j, st)
		}
		s.status[j] = st
	}
	// A warm start never has artificial columns, so the column set is final
	// and the core can be stood up here.
	f := b.factor.Load()
	if !f.adoptableBy(s, b) || !f.acquire() {
		f = nil
	}
	s.initCore(f)
	if f == nil {
		if c, ok := s.core.(*sparseCore); ok {
			c.warmEntries = b.luEntries
		}
		if !s.refactorize() {
			return false
		}
	}
	s.computeReducedCosts()
	return s.dualFeasible()
}

// normalizeNonbasic reconciles an imported nonbasic status with the current
// bounds: a bound the status refers to may have become infinite (or the
// variable fixed) relative to the exporting solve.
func (s *simplex) normalizeNonbasic(j int, st BasisStatus) BasisStatus {
	lo, up := s.lower[j], s.upper[j]
	if lo == up {
		return BasisAtLower
	}
	loInf := math.IsInf(lo, -1)
	upInf := math.IsInf(up, 1)
	switch st {
	case BasisAtLower:
		if loInf {
			if upInf {
				return BasisFree
			}
			return BasisAtUpper
		}
	case BasisAtUpper:
		if upInf {
			if loInf {
				return BasisFree
			}
			return BasisAtLower
		}
	case BasisFree:
		if !loInf || !upInf {
			return initialStatus(lo, up)
		}
	}
	return st
}

// dualFeasible reports whether the phase-2 reduced costs respect the sign
// conditions of every nonbasic column. The tolerance is looser than the
// pivoting tolerance because an imported basis was optimal under bit-
// different arithmetic.
func (s *simplex) dualFeasible() bool {
	loose := 10 * tol
	for j := 0; j < s.n; j++ {
		if s.status[j] == BasisBasic || s.lower[j] == s.upper[j] {
			continue
		}
		d := s.reduced[j]
		switch s.status[j] {
		case BasisAtLower:
			if d < -loose {
				return false
			}
		case BasisAtUpper:
			if d > loose {
				return false
			}
		case BasisFree:
			if math.Abs(d) > loose {
				return false
			}
		}
	}
	return true
}
