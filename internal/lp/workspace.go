package lp

// workspace is the memory the solves of one Problem recycle. SolveCtx claims
// the Problem's workspace for the length of the solve (an atomic swap, so a
// concurrent solve of the same Problem that finds the slot empty simply
// allocates its own) and gives it back when it returns. Every buffer a solve
// takes leaves its slot empty until the solve puts it back, so no two users
// ever share one, and a buffer taken and never put back is only garbage.
//
// What a returned Solution or Basis can still reach is never put back: X,
// Basis.Basic and Basis.Status, and a carried factorization with its matrix
// and its row assignment. A carried factor's eta arena returns later, by
// reference count, when the last Basis carrying it is released and the last
// solve that adopted it has ended (see basisFactor).
//
// Arenas whose idx/val capacity exceeds maxKeptEntries are dropped instead
// of kept, so the large models of a refinement round do not stay resident
// for as long as their Problem lives.
type workspace struct {
	sim  *simplex    // the driver struct itself
	core *sparseCore // the core struct itself

	// Driver state (newSimplexBase, newSimplex, installBasis, initCore).
	lower, upper, cost, phase1Cost []float64
	beta, reduced, colBuf, prowBuf []float64
	rhs, artSign                   []float64
	status                         []BasisStatus
	basis, artRow                  []int
	seen                           []bool // Basis.compatible

	// Core scratch (newSparseCore) and matrix (buildCSC).
	work, coreRHS      []float64
	pattern            []uint64
	assigned, basicSet []bool
	newBasis           []int
	pos                []int32
	mat                cscMatrix

	updates etaFile    // an update chain
	factors []*etaFile // factor arenas, at most maxSpareFactors
}

const (
	// maxKeptEntries caps, in off-diagonal entries (12 bytes each), the
	// idx/val capacity of an eta arena a workspace keeps: 192 KiB.
	maxKeptEntries = 16384
	// maxSpareFactors is how many factor arenas a workspace keeps: a solve
	// holds at most two at once, the factor and the build's spare.
	maxSpareFactors = 2
)

// take empties *slot and returns its buffer resized to n with capacity at
// least c and every element zero, as make would, allocating when the
// buffer is too small.
func take[T any](slot *[]T, n, c int) []T {
	b := *slot
	*slot = nil
	if cap(b) < c {
		return make([]T, n, c)
	}
	b = b[:n]
	clear(b)
	return b
}

// put files b in *slot for a later take, unless the slot already holds a
// buffer at least as large (one a solve never took, say).
func put[T any](slot *[]T, b []T) {
	if cap(b) > cap(*slot) {
		*slot = b
	}
}

// claimWorkspace takes p's workspace, or a new one when another solve holds
// it (or none was made yet).
func (p *Problem) claimWorkspace() *workspace {
	if ws := p.ws.Swap(nil); ws != nil {
		return ws
	}
	return new(workspace)
}

// putChain files update chain f's room in *slot for a later chain, unless
// it exceeds the cap or the slot holds a chain at least as large.
func putChain(slot *etaFile, f *etaFile) {
	if cap(f.idx) > maxKeptEntries || cap(f.idx) <= cap(slot.idx) {
		return
	}
	*slot = *f
	slot.reset()
}

// putFactor keeps arena f, which nothing else reaches any more, for a later
// build.
func (ws *workspace) putFactor(f *etaFile) {
	if f == nil || cap(f.idx) > maxKeptEntries || len(ws.factors) >= maxSpareFactors {
		return
	}
	f.reset()
	ws.factors = append(ws.factors, f)
}

// factor returns an arena for a build: a kept one, or a new one.
func (ws *workspace) factor() *etaFile {
	if n := len(ws.factors); n > 0 {
		f := ws.factors[n-1]
		ws.factors[n-1] = nil
		ws.factors = ws.factors[:n-1]
		return f
	}
	return new(etaFile)
}

// release gives the memory of s, a solve that is over, back to its
// workspace, except what the exported Basis b (nil when none) carries. A
// factorization s adopted loses the reference s held on it.
func (s *simplex) release(b *Basis) {
	ws := s.ws
	put(&ws.lower, s.lower)
	put(&ws.upper, s.upper)
	put(&ws.cost, s.cost)
	put(&ws.phase1Cost, s.phase1Cost)
	put(&ws.beta, s.beta)
	put(&ws.reduced, s.reduced)
	put(&ws.colBuf, s.colBuf)
	put(&ws.prowBuf, s.prowBuf)
	put(&ws.artSign, s.artSign)
	put(&ws.status, s.status)
	put(&ws.artRow, s.artRow)
	var carried *basisFactor
	if b != nil {
		carried = b.factor.Load()
	}
	ownRows := carried == nil
	if c, ok := s.core.(*sparseCore); ok {
		// A zero-pivot warm solve re-exports the factorization it adopted,
		// whose row assignment is its parent's.
		ownRows = ownRows || carried == c.lent
		c.release(ws, carried)
	}
	if ownRows {
		put(&ws.basis, s.basis)
	}
	*s = simplex{}
	ws.sim = s
}

// release gives the core's scratch, matrix and arenas back to ws, except
// what carried (the factorization an exported Basis took, or nil) reaches,
// and drops the reference the core held on an adopted factorization.
func (c *sparseCore) release(ws *workspace, carried *basisFactor) {
	put(&ws.work, c.work)
	put(&ws.coreRHS, c.rhs)
	put(&ws.pattern, c.pattern)
	put(&ws.assigned, c.assigned)
	put(&ws.basicSet, c.basicSet)
	put(&ws.newBasis, c.newBasis)
	putChain(&ws.updates, &c.updates)
	ws.putFactor(c.spare)
	switch {
	case c.lent != nil:
		// The matrix is the adopted factorization's, and so is the factor
		// unless a build replaced it.
		if !c.borrowed() && carried == nil {
			ws.putFactor(c.factor)
		}
		c.lent.drop(ws)
	case carried == nil:
		put(&ws.mat.ptr, c.mat.ptr)
		put(&ws.mat.idx, c.mat.idx)
		put(&ws.mat.val, c.mat.val)
		ws.putFactor(c.factor)
	}
	*c = sparseCore{}
	ws.core = c
}
