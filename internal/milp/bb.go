package milp

import (
	"container/heap"
	"context"
	"math"
	"time"

	"rficlayout/internal/conc"
	"rficlayout/internal/lp"
)

// Status is the outcome of a MILP solve.
type Status int

// Solve outcomes.
const (
	// StatusOptimal means the incumbent is proven optimal within the gap.
	StatusOptimal Status = iota
	// StatusFeasible means a limit was hit but an incumbent exists.
	StatusFeasible
	// StatusInfeasible means the model has no feasible assignment.
	StatusInfeasible
	// StatusUnbounded means the LP relaxation is unbounded.
	StatusUnbounded
	// StatusNoSolution means a limit was hit before any incumbent was found.
	StatusNoSolution
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusFeasible:
		return "feasible"
	case StatusInfeasible:
		return "infeasible"
	case StatusUnbounded:
		return "unbounded"
	case StatusNoSolution:
		return "no-solution"
	default:
		return "unknown"
	}
}

// HasSolution reports whether the status carries a usable assignment.
func (s Status) HasSolution() bool { return s == StatusOptimal || s == StatusFeasible }

// SolveOptions tunes the branch-and-bound search.
type SolveOptions struct {
	// TimeLimit bounds wall-clock time; zero means no limit. It is sugar for
	// a context deadline: SolveCtx derives a child context with this timeout,
	// so an enclosing context can still cancel the solve earlier.
	TimeLimit time.Duration
	// Workers is the number of goroutines evaluating LP relaxations
	// concurrently. Zero or one means sequential evaluation. The search is
	// deterministic: any worker count produces the identical Result (see the
	// determinism notes on Solve).
	Workers int
	// MaxNodes bounds the number of explored nodes; zero means a large
	// default (1 << 20).
	MaxNodes int
	// MIPGap is the relative optimality gap at which search stops; zero
	// means 1e-6.
	MIPGap float64
	// IntTol is the integrality tolerance; zero means 1e-6.
	IntTol float64
	// WarmStart, when non-nil and feasible, seeds the incumbent.
	WarmStart []float64
	// DisableWarmLP turns off basis reuse between parent and child nodes:
	// every node LP cold-starts from phase 1, as the solver did before warm
	// starts existed. The search path and result are identical either way
	// (the LP layer guarantees warm and cold solves agree); the switch
	// exists for benchmarking and as an escape hatch.
	DisableWarmLP bool
	// Logf, when non-nil, receives progress messages.
	Logf func(format string, args ...interface{})
}

func (o SolveOptions) intTol() float64 {
	if o.IntTol > 0 {
		return o.IntTol
	}
	return 1e-6
}

func (o SolveOptions) mipGap() float64 {
	if o.MIPGap > 0 {
		return o.MIPGap
	}
	return 1e-6
}

func (o SolveOptions) maxNodes() int {
	if o.MaxNodes > 0 {
		return o.MaxNodes
	}
	return 1 << 20
}

func (o SolveOptions) workers() int {
	if o.Workers > 1 {
		return o.Workers
	}
	return 1
}

// LPStats aggregates linear-programming effort across a branch-and-bound
// search. Counters only accumulate for the nodes the deterministic sequential
// order actually processes (speculative LPs of nodes pruned mid-batch under
// eager parallel evaluation are excluded), so the totals are identical at
// every worker count.
type LPStats struct {
	// Pivots is the total simplex iteration count across all node LPs.
	Pivots int
	// Refactorizations counts tableau rebuilds from the raw problem data
	// (one per accepted warm basis, one per optimal solve).
	Refactorizations int
	// WarmHits and WarmMisses split the node LPs that were offered a parent
	// basis into accepted (dual simplex) and rejected (cold fallback) ones.
	WarmHits   int
	WarmMisses int
	// ColdSolves counts node LPs with no basis to offer: the root, children
	// of nodes whose optimal basis was not exportable, and every node when
	// DisableWarmLP is set.
	ColdSolves int
	// PeakEta is the longest product-form eta chain any node LP carried
	// between refactorizations; aggregation takes the maximum, not the sum.
	PeakEta int
}

// Add accumulates other into s.
func (s *LPStats) Add(other LPStats) {
	s.Pivots += other.Pivots
	s.Refactorizations += other.Refactorizations
	s.WarmHits += other.WarmHits
	s.WarmMisses += other.WarmMisses
	s.ColdSolves += other.ColdSolves
	if other.PeakEta > s.PeakEta {
		s.PeakEta = other.PeakEta
	}
}

// Solves is the total number of node LPs counted.
func (s LPStats) Solves() int { return s.WarmHits + s.WarmMisses + s.ColdSolves }

// WarmHitRate is the fraction of offered bases that were accepted (0 when
// none were offered).
func (s LPStats) WarmHitRate() float64 {
	offered := s.WarmHits + s.WarmMisses
	if offered == 0 {
		return 0
	}
	return float64(s.WarmHits) / float64(offered)
}

// count folds one node LP solution into the stats; warmOffered reports
// whether a parent basis was passed to the solve.
func (s *LPStats) count(sol *lp.Solution, warmOffered bool) {
	s.Pivots += sol.Iterations
	s.Refactorizations += sol.Refactorizations
	if sol.PeakEta > s.PeakEta {
		s.PeakEta = sol.PeakEta
	}
	switch {
	case sol.WarmStarted:
		s.WarmHits++
	case warmOffered:
		s.WarmMisses++
	default:
		s.ColdSolves++
	}
}

// Result is the outcome of Model.Solve.
type Result struct {
	Status    Status
	Objective float64   // incumbent objective including the constant term
	Bound     float64   // best proven lower bound (minimization)
	X         []float64 // incumbent assignment (nil when none)
	Nodes     int
	Runtime   time.Duration
	// LP aggregates the LP-solver effort across all node relaxations,
	// including the root dive heuristic.
	LP LPStats
	// WarmSeedAccepted / WarmSeedRejected report the fate of the WarmStart
	// incumbent seed: 1/0 when it passed the feasibility check, 0/1 when it
	// was rejected, 0/0 when no seed was given.
	WarmSeedAccepted int
	WarmSeedRejected int
	// Cancelled reports that the solve stopped because its context was
	// cancelled (deadline or explicit cancel) rather than by exhausting the
	// search or an internal limit. A cancelled solve may still carry an
	// incumbent (StatusFeasible) — the anytime contract: cancellation costs
	// proof quality, never the best solution found so far.
	Cancelled bool
}

// Gap returns the relative gap between incumbent and bound (0 when proven
// optimal, +Inf when no incumbent).
func (r *Result) Gap() float64 {
	if r.X == nil {
		return math.Inf(1)
	}
	denom := math.Max(1e-9, math.Abs(r.Objective))
	return math.Max(0, (r.Objective-r.Bound)/denom)
}

// Value returns the incumbent value of variable v.
func (r *Result) Value(v Var) float64 {
	if r.X == nil {
		return math.NaN()
	}
	return r.X[v]
}

// BoolValue returns the incumbent value of a binary variable as a bool.
func (r *Result) BoolValue(v Var) bool {
	return r.X != nil && r.X[v] > 0.5
}

// betterIncumbent reports whether (obj, x) should replace the current
// incumbent. A strictly better objective always wins; an objective tie within
// tolerance is broken lexicographically on the solution vector, so the
// adopted incumbent does not depend on the order in which equal-quality
// solutions are discovered.
func (r *Result) betterIncumbent(obj float64, x []float64) bool {
	if r.X == nil {
		return true
	}
	if obj < r.Objective-1e-9 {
		return true
	}
	if obj > r.Objective+1e-9 {
		return false
	}
	return lexLess(x, r.X)
}

// mostFractional returns the integer variable whose relaxation value is
// farthest from integral, or −1 when every one is within tol of an integer.
// Fractions within 1e-9 of the running maximum count as ties and the earlier
// variable keeps the slot: equally fractional variables are common in
// symmetric layout models, where their computed fractions agree only up to
// floating-point noise, and a strict comparison would let that noise pick the
// branching variable — making the search shape depend on the pivot path of
// the node LPs rather than on the model.
func mostFractional(x []float64, integers []int, tol float64) int {
	const tieTol = 1e-9
	branchVar := -1
	worst := tol
	for _, j := range integers {
		frac := math.Abs(x[j] - math.Round(x[j]))
		if frac > worst+tieTol || (branchVar < 0 && frac > worst) {
			worst = frac
			branchVar = j
		}
	}
	return branchVar
}

// lexLess is a strict lexicographic order on solution vectors.
func lexLess(a, b []float64) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// node is one branch-and-bound subproblem: the bound overrides accumulated
// along the path from the root.
type node struct {
	lower map[int]float64
	upper map[int]float64
	bound float64 // parent LP objective: a valid lower bound for this node
	depth int
	// basis is the parent's optimal LP basis (shared, read-only): the child
	// differs by one bound, so it is usually still dual-feasible and the LP
	// warm-starts from it. Nil means a cold solve.
	basis *lp.Basis
}

// nodeQueue is a best-bound priority queue of open nodes.
type nodeQueue []*node

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].bound < q[j].bound }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(*node)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// bbBatchSize is how many open nodes are dequeued per search round. The batch
// size is a fixed constant — deliberately NOT derived from the worker count —
// because the exploration order (and therefore the exact result) must be a
// function of the model alone: workers only split the LP evaluations of one
// batch among themselves.
const bbBatchSize = 16

// Solve runs branch and bound on the model and returns the best solution
// found. The model is not modified. It is shorthand for SolveCtx with a
// background context.
func (m *Model) Solve(opts SolveOptions) (*Result, error) {
	return m.SolveCtx(context.Background(), opts)
}

// SolveCtx runs branch and bound under a context. Cancellation (or the
// deadline derived from opts.TimeLimit) stops the search at the next node
// boundary and returns the incumbent found so far (StatusFeasible) or
// StatusNoSolution when none exists yet. A context that is already cancelled
// on entry returns promptly without solving any LP.
//
// Determinism: the search dequeues nodes in fixed-size batches from the
// best-bound heap and makes every branching, pruning and incumbent decision
// sequentially in batch order; opts.Workers only parallelizes the LP
// relaxation solves of a batch, which are pure functions of their node. As
// long as no limit (time, cancellation) interrupts the search, the returned
// Result — status, objective, bound, node count and solution vector — is
// byte-identical for every worker count. Equal-objective incumbents are
// ordered lexicographically by solution vector as an extra guard.
func (m *Model) SolveCtx(ctx context.Context, opts SolveOptions) (*Result, error) {
	start := time.Now()
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...interface{}) {}
	}
	intTol := opts.intTol()
	if opts.TimeLimit > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.TimeLimit)
		defer cancel()
	}

	prob := m.toLP()
	res := &Result{Status: StatusNoSolution, Bound: math.Inf(-1), Objective: math.Inf(1)}

	// Seed the incumbent from the warm start when it is feasible.
	if opts.WarmStart != nil {
		if ok, why := m.CheckFeasible(opts.WarmStart, 1e-6); ok {
			x := make([]float64, m.NumVars())
			copy(x, opts.WarmStart[:m.NumVars()])
			res.X = x
			res.Objective = m.Objective(x)
			res.Status = StatusFeasible
			res.WarmSeedAccepted = 1
			logf("milp: warm start accepted, objective %.6g", res.Objective)
		} else {
			res.WarmSeedRejected = 1
			logf("milp: warm start rejected: %s", why)
		}
	}

	integers := make([]int, 0, m.NumBinaries())
	for j, t := range m.vtypes {
		if t != Continuous {
			integers = append(integers, j)
		}
	}

	open := &nodeQueue{}
	heap.Init(open)
	heap.Push(open, &node{lower: map[int]float64{}, upper: map[int]float64{}, bound: math.Inf(-1)})

	workers := opts.workers()
	timedOut := false
	rootSolved := false
	batch := make([]*node, 0, bbBatchSize)
	sols := make([]*lp.Solution, bbBatchSize)
	errs := make([]error, bbBatchSize)

search:
	for open.Len() > 0 {
		if res.Nodes >= opts.maxNodes() || ctx.Err() != nil {
			timedOut = true
			break
		}

		// Dequeue one round of nodes, pruning against the incumbent before
		// paying for any LP.
		batch = batch[:0]
		for len(batch) < bbBatchSize && open.Len() > 0 {
			nd := heap.Pop(open).(*node)
			if res.X != nil && nd.bound >= res.Objective-1e-9 {
				continue
			}
			batch = append(batch, nd)
		}
		if len(batch) == 0 {
			continue
		}
		// Best-bound ordering means the first batch node carries the smallest
		// bound among open nodes: it is the current global lower bound.
		if rootSolved && batch[0].bound > res.Bound {
			res.Bound = batch[0].bound
		}

		// Clear the result slots: the slices are reused across rounds, and a
		// job skipped by mid-batch cancellation must read as "not evaluated"
		// rather than as the previous round's stale solution.
		for i := range batch {
			sols[i], errs[i] = nil, nil
		}
		solveNode := func(i int) {
			lpOpts := lp.Options{LowerOverride: batch[i].lower, UpperOverride: batch[i].upper}
			if !opts.DisableWarmLP {
				lpOpts.WarmBasis = batch[i].basis
			}
			sols[i], errs[i] = lp.SolveCtx(ctx, prob, lpOpts)
		}
		// With more than one worker the whole batch is evaluated eagerly by a
		// bounded pool; sequentially each LP is solved lazily right before
		// its node is processed, so nodes pruned mid-batch never pay for one.
		// Either way the decisions below see identical inputs.
		eager := workers > 1 && len(batch) > 1
		if eager {
			conc.ForEach(ctx, workers, len(batch), solveNode)
		}

		for i, nd := range batch {
			// Re-check the prune: the incumbent may have improved while
			// processing earlier nodes of this batch.
			if res.X != nil && nd.bound >= res.Objective-1e-9 {
				continue
			}
			if res.Nodes >= opts.maxNodes() {
				for _, rest := range batch[i:] {
					heap.Push(open, rest)
				}
				timedOut = true
				break search
			}
			res.Nodes++
			if !eager {
				solveNode(i)
			}
			if errs[i] != nil {
				return nil, errs[i]
			}
			sol := sols[i]
			if sol == nil {
				// Eager evaluation skipped this node: the context fired while
				// the batch was in flight. Same treatment as a cancelled LP.
				for _, rest := range batch[i+1:] {
					heap.Push(open, rest)
				}
				timedOut = true
				break search
			}
			res.LP.count(sol, !opts.DisableWarmLP && nd.basis != nil)
			switch sol.Status {
			case lp.StatusCancelled:
				for _, rest := range batch[i+1:] {
					heap.Push(open, rest)
				}
				timedOut = true
				break search
			case lp.StatusInfeasible:
				if res.Nodes == 1 && res.X == nil {
					res.Status = StatusInfeasible
					res.Runtime = time.Since(start)
					return res, nil
				}
				continue
			case lp.StatusUnbounded:
				if res.Nodes == 1 && res.X == nil {
					res.Status = StatusUnbounded
					res.Runtime = time.Since(start)
					return res, nil
				}
				continue
			case lp.StatusIterLimit:
				// Treat as an unusable node bound: keep the parent bound and
				// do not branch further on this path.
				logf("milp: node %d hit LP iteration limit", res.Nodes)
				continue
			}
			rootSolved = true
			lpObj := sol.Objective + m.objConstant
			nd.bound = lpObj
			if res.Nodes == 1 {
				res.Bound = lpObj
				// LP-guided dive from the root: greedily fix fractional integer
				// variables to find a first incumbent quickly. Big-M disjunction
				// models (the non-overlap constraints of the layout ILP) rarely
				// produce integral relaxations, so pure best-bound search can
				// wander for a long time without this.
				if res.X == nil {
					if x, obj, ok := m.dive(ctx, prob, opts, res, nd, sol, integers); ok {
						res.X = x
						res.Objective = obj
						res.Status = StatusFeasible
						logf("milp: dive incumbent %.6g", obj)
					}
				}
			}

			if res.X != nil && lpObj >= res.Objective-1e-9 {
				continue // dominated
			}

			// Find the most fractional integer variable.
			branchVar := mostFractional(sol.X, integers, intTol)

			if branchVar < 0 {
				// Integer feasible: candidate incumbent.
				x := make([]float64, len(sol.X))
				copy(x, sol.X)
				for _, j := range integers {
					x[j] = math.Round(x[j])
				}
				obj := m.Objective(x)
				if res.betterIncumbent(obj, x) {
					res.X = x
					res.Objective = obj
					res.Status = StatusFeasible
					logf("milp: incumbent %.6g after %d nodes", res.Objective, res.Nodes)
				}
				continue
			}

			// Rounding heuristic: cheap attempt to produce an incumbent early.
			if res.X == nil {
				if x, ok := m.roundingHeuristic(sol.X, integers, intTol); ok {
					obj := m.Objective(x)
					if res.betterIncumbent(obj, x) {
						res.X = x
						res.Objective = obj
						res.Status = StatusFeasible
						logf("milp: rounding heuristic incumbent %.6g", obj)
					}
				}
			}

			// Branch. Both children start from this node's optimal basis: the
			// single changed bound usually leaves it dual-feasible, so the
			// child LP re-solves with a handful of dual pivots instead of a
			// phase-1 cold start.
			val := sol.X[branchVar]
			down := &node{
				lower: nd.lower, upper: copyWith(nd.upper, branchVar, math.Floor(val)),
				bound: lpObj, depth: nd.depth + 1, basis: sol.Basis,
			}
			up := &node{
				lower: copyWith(nd.lower, branchVar, math.Ceil(val)), upper: nd.upper,
				bound: lpObj, depth: nd.depth + 1, basis: sol.Basis,
			}
			heap.Push(open, down)
			heap.Push(open, up)

			// Early stop on gap.
			if res.X != nil {
				gap := (res.Objective - res.Bound) / math.Max(1e-9, math.Abs(res.Objective))
				if gap <= opts.mipGap() {
					for _, rest := range batch[i+1:] {
						heap.Push(open, rest)
					}
					break search
				}
			}
		}
	}

	res.Runtime = time.Since(start)
	res.Cancelled = ctx.Err() != nil
	if res.X != nil {
		if !timedOut && open.Len() == 0 {
			res.Status = StatusOptimal
			res.Bound = res.Objective
		} else if !timedOut {
			// Stopped on gap.
			gap := (res.Objective - res.Bound) / math.Max(1e-9, math.Abs(res.Objective))
			if gap <= opts.mipGap() {
				res.Status = StatusOptimal
			} else {
				res.Status = StatusFeasible
			}
		} else {
			res.Status = StatusFeasible
		}
		return res, nil
	}
	if timedOut {
		res.Status = StatusNoSolution
		return res, nil
	}
	// Search exhausted with no incumbent: infeasible.
	res.Status = StatusInfeasible
	return res, nil
}

// dive runs an LP-guided diving heuristic from the given node: it repeatedly
// fixes the most fractional integer variable to its rounded value (flipping
// to the opposite value when that makes the LP infeasible) until the
// relaxation is integral or the dive fails. It returns the incumbent found.
// Each step warm-starts from the basis of the previous one (the fix is a
// bound change, same shape as a branch); the dive runs sequentially inside
// the root node, so its LP stats fold into res deterministically.
func (m *Model) dive(ctx context.Context, prob *lp.Problem, opts SolveOptions, res *Result, nd *node, rootSol *lp.Solution, integers []int) ([]float64, float64, bool) {
	intTol := opts.intTol()
	lower := copyMap(nd.lower)
	upper := copyMap(nd.upper)
	x := rootSol.X
	basis := rootSol.Basis
	for iter := 0; iter <= len(integers)+4; iter++ {
		if ctx.Err() != nil {
			return nil, 0, false
		}
		branchVar := mostFractional(x, integers, intTol)
		if branchVar < 0 {
			// Integral: verify against the full model and return.
			rounded := make([]float64, len(x))
			copy(rounded, x)
			for _, j := range integers {
				rounded[j] = math.Round(rounded[j])
			}
			if ok, _ := m.CheckFeasible(rounded, 1e-6); ok {
				return rounded, m.Objective(rounded), true
			}
			return nil, 0, false
		}
		tryValues := []float64{math.Round(x[branchVar])}
		other := 1 - tryValues[0]
		if m.vtypes[branchVar] == Integer {
			if tryValues[0] >= x[branchVar] {
				other = tryValues[0] - 1
			} else {
				other = tryValues[0] + 1
			}
		}
		tryValues = append(tryValues, other)
		fixed := false
		for _, v := range tryValues {
			trialLower := copyMap(lower)
			trialUpper := copyMap(upper)
			trialLower[branchVar] = v
			trialUpper[branchVar] = v
			lpOpts := lp.Options{LowerOverride: trialLower, UpperOverride: trialUpper}
			if !opts.DisableWarmLP {
				lpOpts.WarmBasis = basis
			}
			sol, err := lp.SolveCtx(ctx, prob, lpOpts)
			if err != nil {
				continue
			}
			res.LP.count(sol, lpOpts.WarmBasis != nil)
			if sol.Status != lp.StatusOptimal {
				continue
			}
			lower, upper = trialLower, trialUpper
			x = sol.X
			basis = sol.Basis
			fixed = true
			break
		}
		if !fixed {
			return nil, 0, false
		}
	}
	return nil, 0, false
}

func copyMap(src map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(src)+1)
	for k, v := range src {
		out[k] = v
	}
	return out
}

// roundingHeuristic rounds the fractional LP values of integer variables and
// re-checks feasibility of the full model.
func (m *Model) roundingHeuristic(x []float64, integers []int, tol float64) ([]float64, bool) {
	rounded := make([]float64, len(x))
	copy(rounded, x)
	for _, j := range integers {
		rounded[j] = math.Round(rounded[j])
		// Keep within bounds.
		if rounded[j] < m.lower[j] {
			rounded[j] = math.Ceil(m.lower[j])
		}
		if rounded[j] > m.upper[j] {
			rounded[j] = math.Floor(m.upper[j])
		}
	}
	if ok, _ := m.CheckFeasible(rounded, 1e-6); ok {
		return rounded, true
	}
	_ = tol
	return nil, false
}

// copyWith clones the override map and sets key to value.
func copyWith(src map[int]float64, key int, value float64) map[int]float64 {
	out := make(map[int]float64, len(src)+1)
	for k, v := range src {
		out[k] = v
	}
	// Branches only ever tighten: the caller passes floor/ceil of the current
	// relaxation value, which is always at least as tight as any previous
	// override of the same variable.
	out[key] = value
	return out
}
