package lp

import (
	"context"
	"fmt"
	"math"
)

// variable status codes used by the simplex.
type varStatus int8

const (
	atLower varStatus = iota
	atUpper
	atFree // nonbasic free variable, parked at zero
	inBasis
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

	prob *Problem // raw problem data, for refactorization

	lower, upper []float64 // bounds per column
	cost         []float64 // phase-2 cost per column
	phase1Cost   []float64 // phase-1 cost per column (1 for artificials)

	core    tableauCore
	newCore func(*simplex) tableauCore // Options.newCore, the test-only oracle hook

	beta     []float64   // current values of basic variables, one per row
	basis    []int       // basic column per row
	status   []varStatus // status per column
	reduced  []float64   // reduced cost per column for the active phase
	inPhase1 bool

	colBuf  []float64 // length m: entering tableau column for the current pivot
	prowBuf []float64 // length n: pivot row for the current pivot

	// forcedInfeasible marks a subproblem whose bound overrides were
	// contradictory (lower > upper); it is reported as infeasible without
	// running any pivots.
	forcedInfeasible bool

	artStart int       // first artificial column index (== n when none)
	artRow   []int     // row of each artificial column
	artSign  []float64 // raw-row coefficient of each artificial column

	tol        float64
	iterations int
	maxIter    int
	refresh    int

	refactorizations int

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

// Solve minimizes the problem and returns the solution. The problem itself is
// not modified; bound overrides from opts are applied to a private copy of
// the bound arrays.
func Solve(p *Problem, opts Options) (*Solution, error) {
	return SolveCtx(context.Background(), p, opts)
}

// SolveCtx is Solve with cancellation: the context is checked periodically
// during pivoting and a cancelled or expired context yields a solution with
// StatusCancelled. Solving the same problem with the same options under a
// context that never fires is identical to Solve.
//
// When opts.WarmBasis is set and still dual-feasible under the (possibly
// overridden) bounds, the solve runs the dual simplex from it; otherwise it
// falls back to the cold primal path. Both paths finish an optimal solve the
// same way — lexicographic canonicalization of the optimal vertex followed by
// a deterministic refactorization — so the two report identical solutions.
func SolveCtx(ctx context.Context, p *Problem, opts Options) (*Solution, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var s *simplex
	var status Status
	warm := false
	if opts.WarmBasis != nil {
		ws, err := newSimplexBase(p, opts)
		if err != nil {
			return nil, err
		}
		if ws.forcedInfeasible {
			s, status = ws, StatusInfeasible
		} else if ws.installBasis(opts.WarmBasis) {
			if ctx != nil && ctx.Done() != nil {
				ws.ctx = ctx
			}
			s, warm = ws, true
			status = s.runDual()
			if status == StatusOptimal {
				// Polish: a dual-optimal basis is primal-optimal up to
				// tolerance; the primal loop confirms (usually zero pivots).
				status = s.iterate()
			}
		}
	}
	if s == nil {
		var err error
		s, err = newSimplex(p, opts)
		if err != nil {
			return nil, err
		}
		if ctx != nil && ctx.Done() != nil {
			s.ctx = ctx
		}
		status = s.run()
	}
	if status == StatusOptimal && !s.forcedInfeasible {
		// Refactorize before canonicalizing so every descent decision reads
		// a tableau that is a pure function of the basic set rather than of
		// the pivot path that reached it, then again after so the reported
		// basic values are equally path-free.
		s.refactorize()
		s.computeReducedCosts()
		s.lexCanonicalize()
		s.refactorize()
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
	if status == StatusOptimal && !s.forcedInfeasible {
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
	return sol, nil
}

// newSimplexBase loads the shared solver form — bounds, costs and the raw
// tableau rows with one slack column per constraint — without committing to a
// starting basis. The cold constructor adds the phase-1 artificial start on
// top; the warm path installs an imported basis instead.
func newSimplexBase(p *Problem, opts Options) (*simplex, error) {
	m := len(p.Constraints)
	nStruct := len(p.Variables)
	s := &simplex{
		m:       m,
		nStruct: nStruct,
		prob:    p,
		tol:     opts.tolerance(),
		refresh: opts.refactorEvery(),
		newCore: opts.newCore,
	}
	s.maxIter = opts.maxIterations(m, nStruct)

	// Column bounds and costs: structural variables then slacks.
	total := nStruct + m
	s.lower = make([]float64, total, total+m)
	s.upper = make([]float64, total, total+m)
	s.cost = make([]float64, total, total+m)
	for j, v := range p.Variables {
		lo, up := v.Lower, v.Upper
		if opts.LowerOverride != nil {
			if o, ok := opts.LowerOverride[j]; ok {
				lo = o
			}
		}
		if opts.UpperOverride != nil {
			if o, ok := opts.UpperOverride[j]; ok {
				up = o
			}
		}
		if lo > up {
			// A branch made the variable empty; the subproblem is trivially
			// infeasible. Signal it through a contradictory fixed bound that
			// the caller sees as StatusInfeasible without running pivots.
			return &simplex{m: 0, n: 0, nStruct: nStruct, forcedInfeasible: true}, nil
		}
		s.lower[j] = lo
		s.upper[j] = up
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
	s.status = make([]varStatus, total, total+m)
	return s, nil
}

// initCore instantiates the basis-inverse engine. It must run after the
// column set is final — for a cold start that means after the artificial
// columns are added — and before the first refactorize call.
func (s *simplex) initCore() {
	s.colBuf = make([]float64, s.m)
	s.prowBuf = make([]float64, s.n)
	if s.newCore != nil {
		s.core = s.newCore(s)
		return
	}
	s.core = newSparseCore(s)
}

// refactorize rebuilds the core's basis-inverse representation (and with it
// s.basis row assignment and s.beta) from the raw problem data; see
// tableauCore.refactorize. The effort counter only counts successful builds.
func (s *simplex) refactorize() bool {
	if !s.core.refactorize() {
		return false
	}
	s.refactorizations++
	return true
}

// newSimplex builds the cold-start solver: nonbasic structural variables park
// at a bound, the slack basis covers what it can, and artificial columns with
// phase-1 cost 1 cover the rest.
func newSimplex(p *Problem, opts Options) (*simplex, error) {
	s, err := newSimplexBase(p, opts)
	if err != nil || s.forcedInfeasible {
		return s, err
	}
	m, nStruct := s.m, s.nStruct

	// Nonbasic structural variables start at the finite bound closest to
	// zero; free variables start at zero.
	for j := 0; j < nStruct; j++ {
		s.status[j] = initialStatus(s.lower[j], s.upper[j])
	}

	// Compute the slack value each row needs, and introduce artificials for
	// rows where that value violates the slack bounds.
	rhs := make([]float64, m)
	for i, c := range p.Constraints {
		acc := 0.0
		for _, e := range c.Row {
			acc += e.Coef * s.nonbasicValue(e.Var)
		}
		rhs[i] = c.RHS - acc
	}
	s.basis = make([]int, m)
	for i := 0; i < m; i++ {
		j := nStruct + i
		need := rhs[i]
		if need >= s.lower[j]-s.tol && need <= s.upper[j]+s.tol {
			// Slack basis is feasible for this row.
			s.basis[i] = j
			s.status[j] = inBasis
			continue
		}
		// Park the slack at its nearest bound and cover the residual with an
		// artificial variable of value |residual|.
		var slackVal float64
		if need < s.lower[j] {
			slackVal = s.lower[j]
			s.status[j] = atLower
		} else {
			slackVal = s.upper[j]
			s.status[j] = atUpper
		}
		art := s.addArtificial(i, sign(need-slackVal))
		s.basis[i] = art
		s.status[art] = inBasis
	}

	// Phase-1 costs: 1 for artificials, 0 otherwise.
	s.phase1Cost = make([]float64, s.n)
	for j := s.artStart; j < s.n; j++ {
		s.phase1Cost[j] = 1
	}

	// The column set is final: stand up the core and factorize the initial
	// basis, which also derives the basic values. The initial basis matrix is
	// a signed permutation (one slack or artificial unit column per row), so
	// this build cannot be singular.
	s.initCore()
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
	s.status = append(s.status, atLower)
	s.artRow = append(s.artRow, i)
	s.artSign = append(s.artSign, sgn)
	if s.artStart > j {
		s.artStart = j
	}
	return j
}

func initialStatus(lo, up float64) varStatus {
	loFin := !math.IsInf(lo, -1)
	upFin := !math.IsInf(up, 1)
	switch {
	case loFin && upFin:
		if math.Abs(up) < math.Abs(lo) {
			return atUpper
		}
		return atLower
	case loFin:
		return atLower
	case upFin:
		return atUpper
	default:
		return atFree
	}
}

// nonbasicValue returns the value a nonbasic column currently takes.
func (s *simplex) nonbasicValue(j int) float64 {
	switch s.status[j] {
	case atLower:
		return s.lower[j]
	case atUpper:
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
