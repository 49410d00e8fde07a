package lp

import (
	"context"
	"fmt"
	"math"
)

// simplex is the working state of one bounded-variable simplex solve (primal
// cold start or dual warm start). The driver owns the problem data, bounds,
// statuses, basic values and the incrementally maintained reduced-cost row;
// the tableau quantities every decision needs — entering columns, pivot rows,
// reduced costs from scratch — come from the sparse revised basis-inverse
// core.
type simplex struct {
	m, n    int // constraint and total column counts (structural + slack + artificial)
	nStruct int // structural variable count

	prob *Problem   // raw problem data, for refactorization
	ws   *workspace // where the solve's buffers come from and return to

	lower, upper []float64 // bounds per column
	cost         []float64 // phase-2 cost per column
	phase1Cost   []float64 // phase-1 cost per column (1 for artificials)

	core    tableauCore
	newCore func(*simplex) tableauCore // Options.newCore, the test-only oracle hook

	beta     []float64     // current values of basic variables, one per row
	basis    []int         // basic column per row
	status   []BasisStatus // status per column
	reduced  []float64     // reduced cost per column for the active phase
	inPhase1 bool

	colBuf  []float64 // length m: entering tableau column for the current pivot
	prowBuf []float64 // length n: pivot row for the current pivot

	artStart int       // first artificial column index (== n when none)
	artRow   []int     // row of each artificial column
	artSign  []float64 // raw-row coefficient of each artificial column

	iterations int
	maxIter    int
	refresh    int

	refactorizations int
	// fresh reports that the core state is exactly what a refactorization
	// would build now: set by every build (or adopted factorization),
	// cleared by every pivot and bound flip after it.
	fresh bool

	degenerate  int  // consecutive degenerate pivots
	useBland    bool // anti-cycling mode
	lexPivoting bool // inside lexCanonicalize: ratio-test ties break by index

	// ctx, when non-nil, is polled every few pivots; cancellation aborts the
	// solve with StatusCancelled.
	ctx context.Context
}

// cancelCheckEvery is how many pivots pass between context polls; polling a
// context costs an atomic load plus a channel select, so it is kept off the
// per-pivot path.
const cancelCheckEvery = 32

// cancelled reports whether the solve's context has fired.
func (s *simplex) cancelled() bool {
	return s.ctx != nil && s.iterations%cancelCheckEvery == 0 && s.ctx.Err() != nil
}

// SolveCtx minimizes the problem and returns the solution. The problem itself
// is not modified; bound overrides from opts are applied to a private copy of
// the bound arrays. The context is checked periodically during pivoting and
// before every move of the canonicalization pass; a cancelled or expired
// context yields a solution with StatusCancelled. Under a context that never
// fires the solution does not depend on the context.
//
// When opts.WarmBasis is set and still dual-feasible under the (possibly
// overridden) bounds, the solve runs the dual simplex from it; otherwise it
// falls back to the cold primal path. Both paths finish an optimal solve the
// same way — lexicographic canonicalization of the optimal vertex followed by
// a deterministic refactorization — so the two report identical solutions.
// A warm start from a Basis exported by a solve of the same problem adopts
// the factorization that Basis carries instead of building its own.
//
// The solve's private memory comes from a workspace p holds: the solves of
// one Problem, the nodes of one branch-and-bound search, reuse one another's
// scratch, update chains and dropped factor arenas instead of allocating
// their own (what the returned Solution and Basis reach is never reused; see
// Basis.Release). A concurrent solve of p that finds the workspace taken
// allocates as if it had none, so p may still be solved from many
// goroutines at once.
func SolveCtx(ctx context.Context, p *Problem, opts Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if emptyBounds(p, opts) {
		return &Solution{Status: StatusInfeasible, X: make([]float64, len(p.Variables))}, nil
	}
	ws := p.claimWorkspace()
	defer p.ws.Store(ws)
	var s *simplex
	var status Status
	warm := false
	if opts.WarmBasis != nil {
		w, err := newSimplexBase(p, opts, ws)
		if err != nil {
			return nil, err
		}
		if w.installBasis(opts.WarmBasis) {
			if ctx != nil && ctx.Done() != nil {
				w.ctx = ctx
			}
			s, warm = w, true
			status = s.runDual()
			if status == StatusOptimal {
				// Polish: a dual-optimal basis is primal-optimal up to
				// tolerance; the primal loop confirms (usually zero pivots).
				status = s.iterate()
			}
		} else {
			w.release(nil) // the cold solver reuses what it took
		}
	}
	if s == nil {
		var err error
		s, err = newSimplex(p, opts, ws)
		if err != nil {
			return nil, err
		}
		if ctx != nil && ctx.Done() != nil {
			s.ctx = ctx
		}
		status = s.run()
	}
	if status == StatusOptimal {
		// Refactorize before canonicalizing so every descent decision reads
		// a tableau that is a pure function of the basic set rather than of
		// the pivot path that reached it, then again after so the reported
		// basic values are equally path-free. A rebuild with nothing moved
		// since the last one would reproduce the state bit for bit, so it is
		// skipped.
		if !s.fresh {
			s.refactorize()
		}
		s.computeReducedCosts()
		if !s.lexCanonicalize() {
			status = StatusCancelled
		} else if !s.fresh {
			s.refactorize()
		}
	}
	sol := &Solution{
		Status:           status,
		X:                s.extract(),
		Iterations:       s.iterations,
		Refactorizations: s.refactorizations,
		WarmStarted:      warm,
	}
	if s.core != nil {
		sol.PeakEta = s.core.peakEta()
	}
	if status == StatusOptimal {
		sol.Basis = s.exportBasis()
	}
	if status == StatusOptimal || status == StatusIterLimit || status == StatusCancelled {
		obj := 0.0
		for j := 0; j < s.nStruct; j++ {
			obj += p.Variables[j].Cost * sol.X[j]
		}
		sol.Objective = obj
	} else if status == StatusUnbounded {
		sol.Objective = math.Inf(-1)
	}
	s.release(sol.Basis)
	return sol, nil
}

// emptyBounds reports whether the bound overrides leave some variable with
// its lower bound above its upper one: a branch made that variable's domain
// empty, so the subproblem is infeasible without a pivot. Override keys
// outside the variable range are ignored, as the solver ignores them.
func emptyBounds(p *Problem, opts Options) bool {
	for _, overrides := range []map[int]float64{opts.LowerOverride, opts.UpperOverride} {
		for j := range overrides {
			if j >= 0 && j < len(p.Variables) {
				if lo, up := opts.bounds(j, p.Variables[j]); lo > up {
					return true
				}
			}
		}
	}
	return false
}

// bounds returns variable j's bounds under the overrides.
func (o Options) bounds(j int, v Variable) (lo, up float64) {
	lo, up = v.Lower, v.Upper
	if ov, ok := o.LowerOverride[j]; ok {
		lo = ov
	}
	if ov, ok := o.UpperOverride[j]; ok {
		up = ov
	}
	return lo, up
}

// newSimplexBase loads the shared solver form — bounds, costs and the raw
// tableau rows with one slack column per constraint — without committing to a
// starting basis. The cold constructor adds the phase-1 artificial start on
// top; the warm path installs an imported basis instead. The solver draws its
// buffers from ws.
func newSimplexBase(p *Problem, opts Options, ws *workspace) (*simplex, error) {
	m := len(p.Constraints)
	nStruct := len(p.Variables)
	s := ws.sim
	ws.sim = nil
	if s == nil {
		s = new(simplex)
	}
	*s = simplex{
		m:       m,
		nStruct: nStruct,
		prob:    p,
		ws:      ws,
		refresh: opts.refactorEvery(),
		newCore: opts.newCore,
	}
	s.maxIter = maxIterations(m, nStruct)

	// Column bounds and costs: structural variables then slacks, with room
	// for one artificial per row.
	total := nStruct + m
	s.lower = take(&ws.lower, total, total+m)
	s.upper = take(&ws.upper, total, total+m)
	s.cost = take(&ws.cost, total, total+m)
	for j, v := range p.Variables {
		s.lower[j], s.upper[j] = opts.bounds(j, v)
		s.cost[j] = v.Cost
	}
	for i, c := range p.Constraints {
		j := nStruct + i
		switch c.Sense {
		case LE:
			s.lower[j], s.upper[j] = 0, Infinity
		case GE:
			s.lower[j], s.upper[j] = math.Inf(-1), 0
		case EQ:
			s.lower[j], s.upper[j] = 0, 0
		default:
			return nil, fmt.Errorf("lp: constraint %d has unknown sense %d", i, c.Sense)
		}
	}
	s.n = total
	s.artStart = total
	s.status = take(&ws.status, total, total+m)
	s.artRow = take(&ws.artRow, 0, 0)
	s.artSign = take(&ws.artSign, 0, 0)
	return s, nil
}

// initCore instantiates the basis-inverse engine. It must run after the
// column set is final — for a cold start that means after the artificial
// columns are added. With a carried factorization f (warm start, sparse core
// only) the core shares f's matrix and adopts its factorization, which also
// derives the basic values; otherwise the caller must refactorize next.
func (s *simplex) initCore(f *basisFactor) {
	s.colBuf = take(&s.ws.colBuf, s.m, s.m)
	s.prowBuf = take(&s.ws.prowBuf, s.n, s.n)
	s.beta = take(&s.ws.beta, s.m, s.m)
	switch {
	case s.newCore != nil:
		s.core = s.newCore(s)
	case f != nil:
		c := newSparseCore(s, f.mat)
		c.adopt(f)
		s.core = c
		s.fresh = true
	default:
		s.core = newSparseCore(s, buildCSC(s))
	}
}

// refactorize rebuilds the core's basis-inverse representation (and with it
// s.basis row assignment and s.beta) from the raw problem data; see
// tableauCore.refactorize. The effort counter only counts successful builds.
func (s *simplex) refactorize() bool {
	if !s.core.refactorize() {
		return false
	}
	s.refactorizations++
	s.fresh = true
	return true
}

// newSimplex builds the cold-start solver: nonbasic structural variables park
// at a bound, the slack basis covers what it can, and artificial columns with
// phase-1 cost 1 cover the rest. The solver draws its buffers from ws.
func newSimplex(p *Problem, opts Options, ws *workspace) (*simplex, error) {
	s, err := newSimplexBase(p, opts, ws)
	if err != nil {
		return nil, err
	}
	m, nStruct := s.m, s.nStruct

	// Nonbasic structural variables start at the finite bound closest to
	// zero; free variables start at zero.
	for j := 0; j < nStruct; j++ {
		s.status[j] = initialStatus(s.lower[j], s.upper[j])
	}

	// Compute the slack value each row needs, and introduce artificials for
	// rows where that value violates the slack bounds.
	rhs := take(&ws.rhs, m, m)
	defer put(&ws.rhs, rhs)
	for i, c := range p.Constraints {
		acc := 0.0
		for _, e := range c.Row {
			acc += e.Coef * s.nonbasicValue(e.Var)
		}
		rhs[i] = c.RHS - acc
	}
	s.basis = take(&ws.basis, m, m)
	for i := 0; i < m; i++ {
		j := nStruct + i
		need := rhs[i]
		if need >= s.lower[j]-tol && need <= s.upper[j]+tol {
			// Slack basis is feasible for this row.
			s.basis[i] = j
			s.status[j] = BasisBasic
			continue
		}
		// Park the slack at its nearest bound and cover the residual with an
		// artificial variable of value |residual|.
		var slackVal float64
		if need < s.lower[j] {
			slackVal = s.lower[j]
			s.status[j] = BasisAtLower
		} else {
			slackVal = s.upper[j]
			s.status[j] = BasisAtUpper
		}
		art := s.addArtificial(i, sign(need-slackVal))
		s.basis[i] = art
		s.status[art] = BasisBasic
	}

	// Phase-1 costs: 1 for artificials, 0 otherwise.
	s.phase1Cost = take(&ws.phase1Cost, s.n, s.n)
	for j := s.artStart; j < s.n; j++ {
		s.phase1Cost[j] = 1
	}

	// The column set is final: stand up the core and factorize the initial
	// basis, which also derives the basic values. The initial basis matrix is
	// a signed permutation (one slack or artificial unit column per row), so
	// this build cannot be singular.
	s.initCore(nil)
	s.refactorize()
	return s, nil
}

// addArtificial appends an artificial column with coefficient sgn in row i
// and returns its index.
func (s *simplex) addArtificial(i int, sgn float64) int {
	j := s.n
	s.n++
	s.lower = append(s.lower, 0)
	s.upper = append(s.upper, Infinity)
	s.cost = append(s.cost, 0)
	s.status = append(s.status, BasisAtLower)
	s.artRow = append(s.artRow, i)
	s.artSign = append(s.artSign, sgn)
	if s.artStart > j {
		s.artStart = j
	}
	return j
}

func initialStatus(lo, up float64) BasisStatus {
	loFin := !math.IsInf(lo, -1)
	upFin := !math.IsInf(up, 1)
	switch {
	case loFin && upFin:
		if math.Abs(up) < math.Abs(lo) {
			return BasisAtUpper
		}
		return BasisAtLower
	case loFin:
		return BasisAtLower
	case upFin:
		return BasisAtUpper
	default:
		return BasisFree
	}
}

// nonbasicValue returns the value a nonbasic column currently takes.
func (s *simplex) nonbasicValue(j int) float64 {
	switch s.status[j] {
	case BasisAtLower:
		return s.lower[j]
	case BasisAtUpper:
		return s.upper[j]
	default:
		return 0
	}
}

func sign(v float64) float64 {
	if v < 0 {
		return -1
	}
	return 1
}
