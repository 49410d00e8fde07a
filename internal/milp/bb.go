package milp

import (
	"container/heap"
	"context"
	"maps"
	"math"
	"slices"

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

// SolveOptions tunes the branch-and-bound search. The integrality tolerance
// and the relative optimality gap at which search stops are both fixed at
// 1e-6, and the search always starts without an incumbent.
type SolveOptions struct {
	// MaxNodes bounds the number of explored nodes; zero means a large
	// default (1 << 20).
	MaxNodes int
	// DisableWarmLP turns off basis reuse between parent and child nodes:
	// every node LP cold-starts from phase 1, as the solver did before warm
	// starts existed. The search path and result are identical either way
	// (the LP layer guarantees warm and cold solves agree); pilp's ColdLP
	// sets it so the two paths can be held against each other.
	DisableWarmLP bool
}

const (
	// intTol is the integrality tolerance: a relaxation value within intTol
	// of an integer counts as integral.
	intTol = 1e-6
	// mipGap is the relative optimality gap at which search stops.
	mipGap = 1e-6
)

func (o SolveOptions) maxNodes() int {
	if o.MaxNodes > 0 {
		return o.MaxNodes
	}
	return 1 << 20
}

// LPStats aggregates linear-programming effort across a branch-and-bound
// search: the sequential search solves exactly one LP per processed node
// (plus the root dive's), so the totals are a function of the model and the
// options.
//
// The JSON tags are the one wire form of the counters: the result cache's
// Dir entries and the server's "lp" response object both encode this struct.
// Effort counters are not part of the byte-identity contract: a cache entry
// written by an older solver keeps the counts that solver spent.
type LPStats struct {
	// Pivots is the total simplex iteration count across all node LPs.
	Pivots int `json:"pivots"`
	// Refactorizations counts basis-inverse builds from the raw problem data
	// (see lp.Solution.Refactorizations): one per cold start and per warm
	// basis that carries no adoptable factorization, at most two at
	// optimality, plus the periodic and drift rebuilds between pivots.
	Refactorizations int `json:"refactorizations"`
	// WarmHits and WarmMisses split the node LPs that were offered a parent
	// basis into accepted (dual simplex) and rejected (cold fallback) ones.
	WarmHits   int `json:"warm_hits"`
	WarmMisses int `json:"warm_misses"`
	// ColdSolves counts node LPs with no basis to offer: the root, children
	// of nodes whose optimal basis was not exportable, and every node when
	// DisableWarmLP is set.
	ColdSolves int `json:"cold_solves"`
	// PeakEta is the longest product-form eta chain any node LP carried
	// between refactorizations; aggregation takes the maximum, not the sum.
	// It stays in process: neither the cache nor the server writes it.
	PeakEta int `json:"-"`
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

// Result is the outcome of Model.SolveCtx.
type Result struct {
	Status    Status
	Objective float64   // incumbent objective including the constant term
	Bound     float64   // best proven lower bound (minimization)
	X         []float64 // incumbent assignment (nil when none)
	Nodes     int
	// LP aggregates the LP-solver effort across all node relaxations,
	// including the root dive heuristic.
	LP LPStats
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
	return slices.Compare(x, r.X) < 0
}

// mostFractional returns the binary variable whose relaxation value is
// farthest from integral, or −1 when every one is within tol of an integer.
// Fractions within 1e-9 of the running maximum count as ties and the earlier
// variable keeps the slot: equally fractional variables are common in
// symmetric layout models, where their computed fractions agree only up to
// floating-point noise, and a strict comparison would let that noise pick the
// branching variable — making the search shape depend on the pivot path of
// the node LPs rather than on the model.
func mostFractional(x []float64, binaries []int, tol float64) int {
	const tieTol = 1e-9
	branchVar := -1
	worst := tol
	for _, j := range binaries {
		frac := math.Abs(x[j] - math.Round(x[j]))
		if frac > worst+tieTol || (branchVar < 0 && frac > worst) {
			worst = frac
			branchVar = j
		}
	}
	return branchVar
}

// node is one branch-and-bound subproblem: the bound overrides accumulated
// along the path from the root.
type node struct {
	lower map[int]float64
	upper map[int]float64
	bound float64 // parent LP objective: a valid lower bound for this node
	// basis is the parent's optimal LP basis (shared, read-only): the child
	// differs by one bound, so it is usually still dual-feasible and the LP
	// warm-starts from it. Nil means a cold solve. It never carries the
	// parent's LU factorization (see the node loop in SolveCtx).
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

// bbBatchSize is how many open nodes are dequeued per search round. A batch is
// popped from the best-bound heap before any of its nodes is solved, and
// children pushed while it is processed wait for the next round, so the
// batch size fixes the node order. Every node budget and golden layout was
// recorded under this order; changing the constant changes which node a
// budgeted search stops at.
const bbBatchSize = 16

// SolveCtx runs a sequential branch and bound over the model's 0-1 variables
// under a context and returns the best solution found; the model is not
// modified. Cancellation or a deadline on the context stops the search at
// the next node boundary and returns the incumbent found so far
// (StatusFeasible) or StatusNoSolution when none exists yet. A context that
// is already cancelled on entry returns promptly without solving any LP.
//
// Determinism: the search dequeues nodes in fixed-size batches from the
// best-bound heap and solves each node's LP relaxation right before making
// its branching, pruning and incumbent decisions, in batch order. As long as
// no limit (time, cancellation) interrupts the search, the returned Result —
// status, objective, bound, node count and solution vector — is a function
// of the model and the options alone. Equal-objective incumbents are ordered
// lexicographically by solution vector as an extra guard.
func (m *Model) SolveCtx(ctx context.Context, opts SolveOptions) (*Result, error) {
	prob := &m.lp
	res := &Result{Status: StatusNoSolution, Bound: math.Inf(-1), Objective: math.Inf(1)}

	binaries := make([]int, 0, m.NumBinaries())
	for j, b := range m.binary {
		if b {
			binaries = append(binaries, j)
		}
	}

	open := &nodeQueue{}
	heap.Init(open)
	heap.Push(open, &node{lower: map[int]float64{}, upper: map[int]float64{}, bound: math.Inf(-1)})

	timedOut := false
	rootSolved := false
	batch := make([]*node, 0, bbBatchSize)

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
			// Each LP is solved right before its node is processed, so a node
			// pruned mid-batch never pays for one.
			lpOpts := lp.Options{LowerOverride: nd.lower, UpperOverride: nd.upper}
			if !opts.DisableWarmLP {
				lpOpts.WarmBasis = nd.basis
			}
			sol, err := lp.SolveCtx(ctx, prob, lpOpts)
			if err != nil {
				return nil, err
			}
			// Only the root's factorization is handed on, to the dive; the
			// children of every node queue with the factor-less basis, since
			// a factor on a queued node stays resident until it is dequeued:
			// across a refinement model's tree, more memory than the saved
			// rebuilds are worth. sol drops the factor here so the dive's
			// first step can release it:
			// holding it through the whole dive raised the refine workload's
			// median RSS by 8% on a 2-CPU host. Every factor the search drops
			// is released, so the next node's solve builds into its arena.
			factored := sol.Basis
			sol.Basis = sol.Basis.WithoutFactor()
			if res.Nodes > 1 {
				factored.Release()
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
					return res, nil
				}
				continue
			case lp.StatusUnbounded:
				if res.Nodes == 1 && res.X == nil {
					res.Status = StatusUnbounded
					return res, nil
				}
				continue
			case lp.StatusIterLimit:
				// Treat as an unusable node bound: keep the parent bound and
				// do not branch further on this path.
				continue
			}
			rootSolved = true
			lpObj := sol.Objective + m.objConstant
			nd.bound = lpObj
			if res.Nodes == 1 {
				res.Bound = lpObj
				// LP-guided dive from the root: greedily fix fractional binary
				// variables to find a first incumbent quickly. Big-M disjunction
				// models (the non-overlap constraints of the layout ILP) rarely
				// produce integral relaxations, so pure best-bound search can
				// wander for a long time without this.
				if res.X == nil {
					if x, obj, ok := m.dive(ctx, prob, opts, res, nd, sol.X, factored, binaries); ok {
						res.X = x
						res.Objective = obj
						res.Status = StatusFeasible
					}
				}
			}

			if res.X != nil && lpObj >= res.Objective-1e-9 {
				continue // dominated
			}

			// Find the most fractional binary variable.
			branchVar := mostFractional(sol.X, binaries, intTol)

			if branchVar < 0 {
				// Integer feasible: candidate incumbent.
				x := make([]float64, len(sol.X))
				copy(x, sol.X)
				for _, j := range binaries {
					x[j] = math.Round(x[j])
				}
				obj := m.Objective(x)
				if res.betterIncumbent(obj, x) {
					res.X = x
					res.Objective = obj
					res.Status = StatusFeasible
				}
				continue
			}

			// Branch. Both children start from this node's optimal basis: the
			// single changed bound usually leaves it dual-feasible, so the
			// child LP re-solves with a handful of dual pivots instead of a
			// phase-1 cold start.
			val := sol.X[branchVar]
			// Branches only ever tighten: floor/ceil of the current relaxation
			// value is at least as tight as any earlier override of the
			// variable.
			down := &node{lower: nd.lower, upper: maps.Clone(nd.upper), bound: lpObj, basis: sol.Basis}
			down.upper[branchVar] = math.Floor(val)
			up := &node{lower: maps.Clone(nd.lower), upper: nd.upper, bound: lpObj, basis: sol.Basis}
			up.lower[branchVar] = math.Ceil(val)
			heap.Push(open, down)
			heap.Push(open, up)

			// Early stop on gap.
			if res.X != nil && res.Gap() <= mipGap {
				for _, rest := range batch[i+1:] {
					heap.Push(open, rest)
				}
				break search
			}
		}
	}

	res.Cancelled = ctx.Err() != nil
	if res.X != nil {
		if !timedOut && open.Len() == 0 {
			res.Status = StatusOptimal
			res.Bound = res.Objective
		} else if !timedOut {
			// Stopped on gap.
			if res.Gap() <= mipGap {
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
// fixes the most fractional binary variable to its rounded value (flipping
// to the opposite value when that makes the LP infeasible) until the
// relaxation is integral or the dive fails. It returns the incumbent found.
// Each step warm-starts from the basis of the previous one (the fix is a
// bound change, same shape as a branch) and adopts the LU factorization that
// basis carries, starting from the root's (x, basis); the dive runs
// sequentially inside the root node, so its LP stats fold into res
// deterministically. It releases each basis once it has moved past it (a
// failed first trial warm-starts the second from the same basis), and the
// last one when it returns.
func (m *Model) dive(ctx context.Context, prob *lp.Problem, opts SolveOptions, res *Result, nd *node, x []float64, basis *lp.Basis, binaries []int) ([]float64, float64, bool) {
	defer func() { basis.Release() }()
	lower, upper := nd.lower, nd.upper
	for iter := 0; iter <= len(binaries)+4; iter++ {
		if ctx.Err() != nil {
			return nil, 0, false
		}
		branchVar := mostFractional(x, binaries, intTol)
		if branchVar < 0 {
			// Integral: verify against the full model and return.
			rounded := make([]float64, len(x))
			copy(rounded, x)
			for _, j := range binaries {
				rounded[j] = math.Round(rounded[j])
			}
			if ok, _ := m.CheckFeasible(rounded, 1e-6); ok {
				return rounded, m.Objective(rounded), true
			}
			return nil, 0, false
		}
		rounded := math.Round(x[branchVar])
		fixed := false
		for _, v := range []float64{rounded, 1 - rounded} {
			trialLower := maps.Clone(lower)
			trialUpper := maps.Clone(upper)
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
			basis.Release()
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
