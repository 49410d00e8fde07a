package pilp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	"rficlayout/internal/conc"
	"rficlayout/internal/geom"
	"rficlayout/internal/ilpmodel"
	"rficlayout/internal/layout"
	"rficlayout/internal/milp"
	"rficlayout/internal/netlist"
)

// Defaults of the flow's geometric windows, used where Options leaves
// Confinement or PairRadius at zero.
const (
	DefaultConfinement = 40 * geom.Micron
	DefaultPairRadius  = 80 * geom.Micron
)

// Options tunes the progressive flow. It is configuration only: what a flow
// spends is reported on Result, never accumulated through Options.
type Options struct {
	// ChainPoints is the chain-point count per microstrip that the per-strip
	// exact models of phases 2 and 3 start from: phase 2's first solve of
	// every strip uses it, and both phases' escalations grow from it. Zero
	// means 4.
	ChainPoints int
	// MaxChainPoints bounds chain-point insertion in the escalations of
	// phases 2 and 3. Zero, or a value below ChainPoints, means the larger
	// of 8 and ChainPoints.
	MaxChainPoints int
	// Confinement is the τd window of phases 2–3. Zero means
	// DefaultConfinement (40 µm).
	Confinement geom.Coord
	// PairRadius prunes non-overlap pairs farther apart than this. Zero
	// means DefaultPairRadius (80 µm).
	PairRadius geom.Coord
	// StripTimeLimit bounds each per-strip ILP solve. Zero means 5 s. The
	// flow turns it into a per-solve context deadline under its own context.
	StripTimeLimit time.Duration
	// PhaseTimeLimit bounds the global adjustment solve of phase 1. Zero
	// means 30 s. Like StripTimeLimit it becomes a per-solve deadline.
	PhaseTimeLimit time.Duration
	// StripNodeLimit, when positive, bounds each per-strip branch-and-bound
	// search by explored node count instead of only wall clock. Nodes are
	// processed in a deterministic order at every worker count, so a binding
	// node budget cuts the search at a path-independent point — unlike a
	// binding time limit, which cuts at a wall-clock-dependent one. This is
	// what lets benchmark harnesses run circuits whose strip solves do not
	// converge while keeping the byte-identical determinism contract.
	StripNodeLimit int
	// Phase1NodeLimit is the node budget of the phase-1 solve. That model is
	// a pure LP (TestPhase1ModelIsPureLP), so its search is the root node
	// alone and no positive value binds. It only reaches Fingerprint, whose
	// text keys the result cache.
	Phase1NodeLimit int
	// Workers bounds the worker pool that solves independent per-strip
	// subproblems concurrently. Zero means GOMAXPROCS; one disables
	// concurrency. The flow is deterministic: every worker count produces the
	// identical layout (see GenerateCtx).
	Workers int
	// MaxRefineIterations bounds phase 3. Zero means 3; a negative value
	// skips refinement entirely — benchmark harnesses use that to keep the
	// workload to phases whose solves converge deterministically.
	MaxRefineIterations int
	// ColdLP disables warm-started LP re-solves inside branch-and-bound:
	// every node LP solves from scratch instead of reusing its parent's
	// basis. The layout is identical either way (the determinism contract
	// covers warm starts); the flag exists so the warm/cold tests and the
	// audit battery's warm-vs-cold check can hold the two paths against
	// each other.
	ColdLP bool
	// AcceptPartial switches GenerateCtx from fail-on-cancellation to anytime
	// degradation: when the flow's context is cancelled between phases, the
	// flow returns the best layout it holds at that point with Result.Partial
	// set (plus bound-gap stats) instead of the context error. Quality
	// degrades, availability does not. Excluded from Fingerprint: when no
	// limit binds it cannot change the layout, and partial results are never
	// written to the cache, so the flag can never conflate cache entries.
	AcceptPartial bool
	// Logf, when non-nil, receives progress messages. With Workers > 1 it may
	// be called from concurrent solver goroutines and must be safe for that
	// (testing.T.Logf and log.Printf both are).
	Logf func(format string, args ...interface{})
}

func (o Options) chainPoints() int {
	if o.ChainPoints >= 2 {
		return o.ChainPoints
	}
	return 4
}

func (o Options) maxChainPoints() int {
	if o.MaxChainPoints >= o.chainPoints() {
		return o.MaxChainPoints
	}
	return max(8, o.chainPoints())
}

func (o Options) confinement() geom.Coord {
	if o.Confinement > 0 {
		return o.Confinement
	}
	return DefaultConfinement
}

func (o Options) pairRadius() geom.Coord {
	if o.PairRadius > 0 {
		return o.PairRadius
	}
	return DefaultPairRadius
}

func (o Options) stripTimeLimit() time.Duration {
	if o.StripTimeLimit > 0 {
		return o.StripTimeLimit
	}
	return 5 * time.Second
}

func (o Options) phaseTimeLimit() time.Duration {
	if o.PhaseTimeLimit > 0 {
		return o.PhaseTimeLimit
	}
	return 30 * time.Second
}

func (o Options) refineIterations() int {
	if o.MaxRefineIterations < 0 {
		return 0
	}
	if o.MaxRefineIterations > 0 {
		return o.MaxRefineIterations
	}
	return 3
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// LPStats aggregates the simplex-level effort of every MILP solve in one
// flow invocation — the LP-pivot counterpart to the branch-and-bound Nodes
// total. Like Nodes, every field is deterministic across worker counts.
type LPStats = milp.LPStats

// Effort is the solver work behind one flow: the one record every layer
// above pilp carries whole. engine.Result and cache.Entry embed it, so a
// counter added to LPStats reaches the engine, the cache and the server's
// response without an edit outside milp.
type Effort struct {
	// Nodes is the total number of branch-and-bound nodes explored across
	// every MILP solve of the flow — the solver-effort counterpart to the
	// wall-clock Runtime.
	Nodes int
	// LP aggregates the simplex-level effort counters (pivots,
	// refactorizations, warm-start outcomes) across the same solves.
	LP LPStats
	// Reused counts the solves answered from the flow's solve memo: models
	// identical to one the flow had already solved under the same node
	// budget, whose nodes and LP work are therefore counted once. It stays
	// in process: neither the cache's Dir entries nor the server's stats
	// carry it.
	Reused int
}

// tally folds every MILP solve of one flow invocation and memoises their
// results. GenerateCtx creates one per flow and hands it to the flow's one
// solve site, Options.solve, which concurrent strip workers share. Every
// fold commutes — sums, and maxima for PeakEta and the gap — so the totals
// are deterministic whenever the set of solves is (absent binding time
// limits).
type tally struct {
	mu          sync.Mutex
	effort      Effort
	maxGap      float64
	interrupted int
	memo        map[memoKey]*memoCall
}

// memoKey identifies one solve: the model's digest and the node budget of
// its search, the two inputs a Result depends on.
type memoKey struct {
	digest   [32]byte
	maxNodes int
}

// memoCall is one memoised solve. done closes once the solving caller has
// settled it; res is then its Result, or nil when that Result may not be
// reused and the entry has left the memo.
type memoCall struct {
	done chan struct{}
	res  *milp.Result
}

// add folds one solve. A gap of +Inf means "no incumbent" and carries no
// bound information, so only finite positive gaps compete for the maximum.
func (t *tally) add(r *milp.Result) {
	if r == nil {
		return
	}
	gap := r.Gap()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.effort.Nodes += r.Nodes
	t.effort.LP.Add(r.LP)
	if r.Cancelled {
		t.interrupted++
	}
	if gap > t.maxGap && !math.IsInf(gap, 1) {
		t.maxGap = gap
	}
}

// do returns the Result of the solve key names. The first caller of a key
// runs solve, folds its Result and publishes it; a caller that finds the key
// in flight waits for it, so which caller solves never depends on timing,
// and counts one reused solve. A Result is kept for reuse unless the solve
// failed or was cancelled: where a cancelled search stops depends on the
// wall clock, while a finished or node-budgeted one is a pure function of
// the model and the budget. A waiter whose leader's Result was not reusable
// runs its own solve, as the next leader or behind one. The call is settled
// even when solve panics, so no waiter blocks on it.
func (t *tally) do(key memoKey, solve func() (*milp.Result, error)) (r *milp.Result, err error) {
	for {
		t.mu.Lock()
		call, inFlight := t.memo[key]
		if !inFlight {
			if t.memo == nil {
				t.memo = map[memoKey]*memoCall{}
			}
			call = &memoCall{done: make(chan struct{})}
			t.memo[key] = call
		}
		t.mu.Unlock()
		if !inFlight {
			defer func() {
				t.add(r)
				t.mu.Lock()
				if err == nil && r != nil && !r.Cancelled {
					call.res = r
				} else {
					delete(t.memo, key)
				}
				t.mu.Unlock()
				close(call.done)
			}()
			return solve()
		}
		<-call.done
		if call.res != nil {
			t.mu.Lock()
			t.effort.Reused++
			t.mu.Unlock()
			return call.res, nil
		}
	}
}

// seal copies the totals into res.
func (t *tally) seal(res *Result) {
	t.mu.Lock()
	defer t.mu.Unlock()
	res.Effort = t.effort
	res.MaxGap = t.maxGap
	res.InterruptedSolves = t.interrupted
}

// solve is the flow's one MILP solve: it bounds the branch and bound of m by
// a deadline limit below ctx and by maxNodes explored nodes (zero means
// milp's default), applies the warm-LP switch to every tree the flow
// spawns, answers a model already solved under the same node budget from
// spent's memo, folds the solve into spent and extracts the incumbent layout
// (nil when there is none). The layout is always extracted by this call's
// model, because the fixed geometry outside a model can differ between two
// calls that build equal models. Solves that run at once share one limit
// under the flow's context, so a memo leader's deadline comes no later than
// its waiters'.
func (o Options) solve(ctx context.Context, m *ilpmodel.Model, limit time.Duration, maxNodes int, spent *tally) (*layout.Layout, *milp.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, limit)
	defer cancel()
	r, err := spent.do(memoKey{m.MILP.Digest(), maxNodes}, func() (*milp.Result, error) {
		return m.MILP.SolveCtx(ctx, milp.SolveOptions{MaxNodes: maxNodes, DisableWarmLP: o.ColdLP})
	})
	if err != nil {
		return nil, nil, err
	}
	if !r.Status.HasSolution() {
		return nil, r, nil
	}
	lay, err := m.ExtractLayout(r.X)
	return lay, r, err
}

// Fingerprint returns a canonical encoding of every option that can change
// the generated layout, with zero values resolved to their effective
// defaults — two Options with equal fingerprints produce byte-identical
// layouts for the same circuit. Workers and Logf are excluded (the
// determinism contract makes them output-invariant); the time limits are
// included because a binding limit changes the result. ColdLP is included
// conservatively: the LP layer's vertex canonicalization makes it
// layout-invariant, but it changes the reported effort counters, so the cache
// never conflates the two modes.
// AcceptPartial is excluded like Workers (see its doc: partial results are
// never cached, and a completed AcceptPartial run is byte-identical to a
// normal one). The result cache hashes this string alongside the canonical
// circuit text.
func (o Options) Fingerprint() string {
	// "rot=false", "shard=0 sharditer=5 shardtol=2000" and "pivot=dantzig
	// core=sparse" stay literal: cache keys, Dir entries, ring ownership and
	// bench's serve-mix pool all hash this string.
	return fmt.Sprintf("chain=%d maxchain=%d conf=%d pair=%d striplimit=%s phaselimit=%s stripnodes=%d p1nodes=%d refine=%d rot=false shard=0 sharditer=5 shardtol=2000 pivot=dantzig core=sparse coldlp=%v",
		o.chainPoints(), o.maxChainPoints(), o.confinement(), o.pairRadius(),
		o.stripTimeLimit(), o.phaseTimeLimit(), o.StripNodeLimit, o.Phase1NodeLimit, o.refineIterations(),
		o.ColdLP)
}

// Snapshot records the layout state after one phase of the flow, mirroring
// the per-phase snapshots of Figure 7.
type Snapshot struct {
	Phase   string
	Layout  *layout.Layout
	Elapsed time.Duration
}

// Result is the outcome of the progressive flow. The embedded Effort totals
// every MILP solve the flow ran, partial runs included.
type Result struct {
	Layout    *layout.Layout
	Snapshots []Snapshot
	Runtime   time.Duration
	Effort
	// Partial reports anytime degradation: the flow's context was cancelled
	// mid-run and (under Options.AcceptPartial) Layout holds the best layout
	// reached so far instead of the fully refined one. Partial results are
	// real layouts — constructed, routed, DRC-checkable — just not carried
	// through every remaining phase.
	Partial bool
	// PartialPhase names the last phase the flow completed, whose snapshot
	// ends Snapshots ("construct" when cancellation hit before phase 1
	// completed). A phase during which the context fired did not complete,
	// even when Layout already holds improvements it merged. Empty when
	// Partial is false.
	PartialPhase string
	// MaxGap is the worst relative incumbent/bound gap across the MILP solves
	// that found an incumbent — how far from proven-optimal the most
	// interrupted solve stopped. Zero when every solve proved optimality;
	// meaningful mainly alongside Partial or InterruptedSolves.
	MaxGap float64
	// InterruptedSolves counts MILP solves stopped by context cancellation
	// (deadline or cancel) rather than by search exhaustion or node budget.
	InterruptedSolves int
}

// Violations returns the design-rule violations of l under the one DRC
// policy of the flow and every tool that reports on its layouts: exact
// lengths within the 10 nm rounding tolerance, pins within 2 nm.
func Violations(l *layout.Layout) []layout.Violation {
	return l.Check(layout.CheckOptions{PinTolerance: 2})
}

// Score ranks layouts the way the flow does internally: design-rule
// violations dominate, then total bends, then accumulated length error.
// Lower is better. Exposed so the audit battery's mirror and rotate checks
// can compare layouts on the flow's own metric.
func Score(l *layout.Layout) float64 {
	m := l.Metrics()
	return 1e6*float64(len(Violations(l))) + 100*float64(m.TotalBends) + geom.Microns(m.TotalLengthError)
}

// phases are the steps of the flow after construction, in order. Each step
// returns the layout it reached, never scoring worse than the one it was
// given; GenerateCtx snapshots and logs it under the phase's label and Logf
// format. Tests cancel flows by matching these formats, so they stay literal.
var phases = []struct {
	label, logf string
	step        func(context.Context, *netlist.Circuit, *layout.Layout, Options, *tally) *layout.Layout
}{
	// Phase 1b: global coordinate adjustment, one LP on the real device
	// bodies and pins with the pads fixed — soft lengths, penalized overlap,
	// relative positions kept, topology fixed (Eq. 24–28). The phase is not
	// blurred, but its label stays literal: it is the server's partial_phase
	// wire value, and bench's batch workload looks the snapshot up by this
	// name.
	{"phase1-blurred-routing", "pilp: phase 1 done: %s", adjust},
	// Phase 2: device visualization and overlap fixing — per-strip exact
	// length models against real device geometry.
	{"phase2-overlap-fixing", "pilp: phase 2 done: %s", exactLengthPass},
	// Phase 3: iterative refinement with chain-point deletion/insertion and
	// device movement within τd.
	{"phase3-refinement", "pilp: phase 3 done: %s", refine},
}

// GenerateCtx runs the full progressive flow under a context. Cancellation
// stops the flow at the next solve boundary and returns the context error; a
// context that is already cancelled returns promptly without solving
// anything. With Options.AcceptPartial set, cancellation after the initial
// construction instead returns the best layout reached so far with
// Result.Partial set — anytime degradation: the caller trades refinement
// quality for a guaranteed layout under its deadline. A phase during which
// the context fired did not complete: it gets no snapshot, and
// Result.PartialPhase names the phase before it.
//
// Determinism: the phase-2 and phase-3 per-strip subproblems are solved
// concurrently on opts.Workers goroutines, but each subproblem starts from
// the same frozen snapshot of the layout and the results are merged
// sequentially in a fixed (worst-first, then strip-name) order, so the
// generated layout is byte-identical for every worker count — provided no
// per-solve time limit binds. A binding StripTimeLimit or
// PhaseTimeLimit stops that solve at a wall-clock-dependent point, which is
// nondeterministic even between two identically-configured runs; use limits
// generous enough for the circuit when reproducibility matters.
func GenerateCtx(ctx context.Context, c *netlist.Circuit, opts Options) (*Result, error) {
	start := time.Now()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Normalize declaration order first: downstream stages (constructive
	// placement, model variable order) iterate the circuit's slices, so
	// canonical order is what makes canonical-equal circuits — and thus
	// cache hits keyed on netlist.Canonical — produce byte-identical
	// layouts.
	c = netlist.Normalized(c)
	spent := new(tally)
	res := &Result{}

	// Phase 1a: constructive signal-flow placement, pads on the boundary,
	// planar L/Z routing.
	current, err := Construct(c)
	if err != nil {
		return nil, err
	}
	opts.logf("pilp: constructed initial layout: %s", current.Metrics())
	constructed := Snapshot{Phase: "construct", Layout: current, Elapsed: time.Since(start)}

	for _, p := range phases {
		if ctx.Err() != nil {
			break
		}
		current = p.step(ctx, c, current, opts, spent)
		if ctx.Err() == nil {
			res.addSnapshot(p.label, current, time.Since(start))
			opts.logf(p.logf, current.Metrics())
		}
	}

	res.Layout = current
	if err := ctx.Err(); err != nil {
		if !opts.AcceptPartial {
			return nil, err
		}
		// Construction is snapshotted only when no phase after it completed.
		if len(res.Snapshots) == 0 {
			res.addSnapshot(constructed.Phase, constructed.Layout, constructed.Elapsed)
		}
		res.Partial = true
		res.PartialPhase = res.Snapshots[len(res.Snapshots)-1].Phase
	}
	res.Runtime = time.Since(start)
	spent.seal(res)
	return res, nil
}

func (r *Result) addSnapshot(phase string, l *layout.Layout, elapsed time.Duration) {
	r.Snapshots = append(r.Snapshots, Snapshot{Phase: phase, Layout: l.Clone(), Elapsed: elapsed})
}

// adjust is phase 1's step: the global adjustment, kept when it scores no
// worse than current.
func adjust(ctx context.Context, c *netlist.Circuit, current *layout.Layout, opts Options, spent *tally) *layout.Layout {
	adjusted, err := globalAdjust(ctx, c, current, opts, spent)
	if err != nil {
		opts.logf("pilp: global adjustment failed: %v", err)
		return current
	}
	if Score(adjusted) <= Score(current) {
		return adjusted
	}
	return current
}

// globalAdjust solves the phase-1 model: every non-pad device and every
// strip coordinate may move within a generous confinement window, lengths
// are soft, overlap is penalized, and relative positions plus topology come
// from the constructed layout. Pads stay fixed, so the model is a pure LP
// (TestPhase1ModelIsPureLP pins this) and its search is the root node alone.
func globalAdjust(ctx context.Context, c *netlist.Circuit, current *layout.Layout, opts Options, spent *tally) (*layout.Layout, error) {
	m, err := phase1Model(c, current, opts)
	if err != nil {
		return nil, err
	}
	opts.logf("pilp: global adjustment model: %s", m.Stats())
	lay, result, err := opts.solve(ctx, m, opts.phaseTimeLimit(), opts.Phase1NodeLimit, spent)
	if err != nil {
		return nil, err
	}
	if lay == nil {
		return nil, fmt.Errorf("pilp: global adjustment found no solution (status %v)", result.Status)
	}
	return lay, nil
}

// phase1Model builds the phase-1 model, the Global form around the
// constructed layout: every strip and non-pad device free, each strip with
// the chain points of its constructed route, generous confinement.
func phase1Model(c *netlist.Circuit, current *layout.Layout, opts Options) (*ilpmodel.Model, error) {
	var freeStrips, freeDevices []string
	for _, ms := range c.Microstrips {
		freeStrips = append(freeStrips, ms.Name)
	}
	for _, d := range c.NonPadDevices() {
		freeDevices = append(freeDevices, d.Name)
	}
	return ilpmodel.Build(c, ilpmodel.Config{
		FreeDevices: freeDevices,
		FreeStrips:  freeStrips,
		Fixed:       current,
		Global:      true,
		Confinement: 3 * opts.confinement(),
		PairRadius:  opts.pairRadius(),
	})
}

// candidate is one precomputed improvement of phases 2 and 3: the layout a
// per-strip solve reached and the strips and devices that solve freed, the
// only geometry in which it can differ from the layout it was solved
// against.
type candidate struct {
	layout  *layout.Layout
	strips  []string
	devices []string
}

// solveCandidate builds and solves an exact model in which the listed strips
// (and optionally the listed devices, confined to τd) are free while the rest
// of current stays fixed. It returns nil when no layout comes out. The
// per-strip models are small, so their branch-and-bound runs single-worker:
// concurrency comes from solving many strips at once (solveAll), not from
// splitting one solve.
func solveCandidate(ctx context.Context, c *netlist.Circuit, current *layout.Layout, strips []string, chainPoints int, devices []string, opts Options, spent *tally) *candidate {
	m, err := stripModel(c, current, strips, chainPoints, devices, opts)
	if err != nil {
		opts.logf("pilp: model build for %v failed: %v", strips, err)
		return nil
	}
	lay, _, err := opts.solve(ctx, m, opts.stripTimeLimit(), opts.StripNodeLimit, spent)
	if err != nil || lay == nil {
		return nil
	}
	return &candidate{layout: lay, strips: strips, devices: devices}
}

// solveAll runs solve(i) for every i below n on the worker pool. Each solve
// must read only a frozen base layout, so the candidates do not depend on
// the worker count; the caller merges them in index order.
func solveAll(ctx context.Context, opts Options, n int, solve func(i int) *candidate) []*candidate {
	out := make([]*candidate, n)
	conc.ForEach(ctx, opts.workers(), n, func(i int) { out[i] = solve(i) })
	return out
}

// graft merges the candidate into a possibly further-evolved layout: it
// copies the placements of the freed devices and the routes of the freed
// strips onto a clone of base and leaves base untouched. It returns nil for
// a nil candidate and when a freed object is missing from the candidate or
// cannot be placed or routed.
func (cand *candidate) graft(base *layout.Layout) *layout.Layout {
	if cand == nil {
		return nil
	}
	out := base.Clone()
	for _, name := range cand.devices {
		pd := cand.layout.Placed(name)
		if pd == nil || out.Place(name, pd.Center, pd.Orient) != nil {
			return nil
		}
	}
	for _, name := range cand.strips {
		rs := cand.layout.Routed(name)
		if rs == nil || out.Route(name, rs.Path.Points...) != nil {
			return nil
		}
	}
	return out
}

// exactLengthPass drives every microstrip to its exact equivalent length with
// per-strip exact models, worst offenders first. The first solve attempt of
// every strip is an independent subproblem against the same frozen base
// layout, so all of them are dispatched to the worker pool at once; the
// results are then merged sequentially in the fixed worst-first order, with
// the full sequential escalation as fallback for strips whose precomputed
// candidate does not merge cleanly. The frozen-base pre-solve runs even with
// one worker, since taking the evolving-layout path at workers=1 would make
// the result depend on the worker count, which the determinism contract
// forbids. It costs a contested strip no extra search where the layout
// around that strip has not changed since the pre-solve: the escalation's
// first model is then the pre-solved one, and the flow's solve memo
// answers it.
func exactLengthPass(ctx context.Context, c *netlist.Circuit, current *layout.Layout, opts Options, spent *tally) *layout.Layout {
	delta := c.Tech.BendCompensation
	strips := append([]*netlist.Microstrip(nil), c.Microstrips...)
	sort.SliceStable(strips, func(i, j int) bool {
		ei := geom.AbsCoord(current.Routed(strips[i].Name).LengthError(delta))
		ej := geom.AbsCoord(current.Routed(strips[j].Name).LengthError(delta))
		if ei != ej {
			return ei > ej
		}
		return strips[i].Name < strips[j].Name
	})

	base := current
	candidates := solveAll(ctx, opts, len(strips), func(i int) *candidate {
		return solveCandidate(ctx, c, base, []string{strips[i].Name}, opts.chainPoints(), nil, opts, spent)
	})
	for i, ms := range strips {
		// Keep the candidate's route when the strip comes out clean without
		// hurting the score.
		if merged := candidates[i].graft(current); merged != nil && Score(merged) <= Score(current) && stripClean(merged, ms.Name) {
			current = merged
			continue
		}
		current = solveStripToTarget(ctx, c, current, ms.Name, opts, spent)
	}
	return current
}

// solveStripToTarget re-solves a single strip (growing its chain points when
// needed) until its exact length is met without new violations, keeping the
// best layout found. When the strip alone cannot be fixed — typically because
// a strip sharing the same pin blocks its detour corridor — the strips of the
// whole junction are re-solved together, each solve from the best layout so
// far.
func solveStripToTarget(ctx context.Context, c *netlist.Circuit, current *layout.Layout, strip string, opts Options, spent *tally) *layout.Layout {
	best := current
	bestScore := Score(current)
	// escalate solves strips against *from at every chain-point count until
	// strip comes out clean, which it reports. *from is read anew for every
	// solve.
	escalate := func(from **layout.Layout, strips []string) bool {
		for n := opts.chainPoints(); n <= opts.maxChainPoints(); n++ {
			cand := solveCandidate(ctx, c, *from, strips, n, nil, opts, spent)
			if cand == nil {
				continue
			}
			if s := Score(cand.layout); s < bestScore {
				best, bestScore = cand.layout, s
			}
			if stripClean(cand.layout, strip) {
				return true
			}
		}
		return false
	}
	if !escalate(&current, []string{strip}) {
		if partners := junctionPartners(c, strip); len(partners) > 1 {
			escalate(&best, partners)
		}
	}
	return best
}

// junctionPartners returns the strip together with every strip that shares a
// terminal pin with it, sorted by name.
func junctionPartners(c *netlist.Circuit, strip string) []string {
	ms, err := c.Microstrip(strip)
	if err != nil {
		return []string{strip}
	}
	set := map[string]bool{strip: true}
	for _, other := range c.Microstrips {
		if other.Name == strip {
			continue
		}
		for _, t := range []netlist.Terminal{other.From, other.To} {
			if t == ms.From || t == ms.To {
				set[other.Name] = true
			}
		}
	}
	return sortedKeys(set)
}

// stripClean reports whether the named strip contributes no violations.
func stripClean(l *layout.Layout, strip string) bool {
	for _, v := range Violations(l) {
		if v.Subject == strip || v.Other == strip {
			return false
		}
	}
	return true
}

// stripModel builds the exact model of solveCandidate: the listed strips
// resampled to chainPoints points and free (the model takes each free
// strip's chain-point count from its resampled route), the listed devices
// free within τd, everything else fixed where current has it.
func stripModel(c *netlist.Circuit, current *layout.Layout, strips []string, chainPoints int, freeDevices []string, opts Options) (*ilpmodel.Model, error) {
	warm := current.Clone()
	for _, strip := range strips {
		rs := warm.Routed(strip)
		if rs == nil {
			return nil, fmt.Errorf("pilp: strip %q is not routed", strip)
		}
		resampled := resamplePath(rs.Path.Points, chainPoints)
		if err := warm.Route(strip, resampled...); err != nil {
			return nil, err
		}
	}
	cfg := ilpmodel.Config{
		FreeStrips:  strips,
		FreeDevices: freeDevices,
		Fixed:       warm,
		PairRadius:  opts.pairRadius(),
	}
	if len(freeDevices) > 0 {
		cfg.Confinement = opts.confinement()
	}
	return ilpmodel.Build(c, cfg)
}

// resamplePath collapses redundant chain points and then inserts collinear
// midpoints on the longest legs until the path has at least n points; this is
// the chain-point deletion/insertion primitive of phase 3. The result always
// remains rectilinear.
func resamplePath(pts []geom.Point, n int) []geom.Point {
	out := append([]geom.Point(nil), pts...)
	if len(out) > n {
		simplified := (geom.Polyline{Points: out, Width: 1}).Simplify().Points
		if len(simplified) >= 2 {
			out = simplified
		}
	}
	for len(out) < n {
		// Split the longest leg in half.
		longest := 0
		var longestLen geom.Coord = -1
		for i := 1; i < len(out); i++ {
			if l := out[i-1].ManhattanTo(out[i]); l > longestLen {
				longestLen = l
				longest = i
			}
		}
		a, b := out[longest-1], out[longest]
		mid := geom.Pt((a.X+b.X)/2, (a.Y+b.Y)/2)
		rest := append([]geom.Point{mid}, out[longest:]...)
		out = append(out[:longest], rest...)
	}
	return out
}

// refine is phase 3: chain points without bends are removed, strips that
// still violate a rule get more chain points, and neighbouring devices may
// move within τd. Each iteration dispatches the escalation of every troubled
// strip to the worker pool against a frozen copy of the layout and merges the
// improvements sequentially in strip-name order.
func refine(ctx context.Context, c *netlist.Circuit, current *layout.Layout, opts Options, spent *tally) *layout.Layout {
	for iter := 0; iter < opts.refineIterations(); iter++ {
		if ctx.Err() != nil {
			break
		}
		// Chain-point deletion: simplify every route in place.
		simplified := current.Clone()
		for _, rs := range current.RoutedStrips() {
			pts := rs.Path.Simplify().Points
			if len(pts) >= 2 {
				_ = simplified.Route(rs.Strip.Name, pts...)
			}
		}
		if Score(simplified) <= Score(current) {
			current = simplified
		}

		violations := Violations(current)
		if len(violations) == 0 && current.Metrics().TotalBends == 0 {
			break
		}

		// Collect the strips that still cause trouble.
		trouble := map[string]bool{}
		for _, v := range violations {
			if _, err := c.Microstrip(v.Subject); err == nil {
				trouble[v.Subject] = true
			}
			if v.Other != "" {
				if _, err := c.Microstrip(v.Other); err == nil {
					trouble[v.Other] = true
				}
			}
		}
		if len(trouble) == 0 && len(violations) > 0 {
			// Violations that involve only devices: free the devices with
			// their incident strips.
			for _, v := range violations {
				for _, ms := range c.StripsAt(v.Subject) {
					trouble[ms.Name] = true
				}
			}
		}

		names := sortedKeys(trouble)
		base := current
		before := Score(base)
		candidates := solveAll(ctx, opts, len(names), func(i int) *candidate {
			for n := opts.chainPoints(); n <= opts.maxChainPoints(); n++ {
				// First with only the strip free, then with its non-pad
				// terminal devices (and their other strips) free within τd —
				// the device-movement freedom of phase 3.
				cand := solveCandidate(ctx, c, base, []string{names[i]}, n, nil, opts, spent)
				if cand == nil || Score(cand.layout) >= before {
					strips, devices := neighbourhood(c, names[i])
					cand = solveCandidate(ctx, c, base, strips, n, devices, opts, spent)
				}
				if cand != nil && Score(cand.layout) < before {
					return cand
				}
			}
			return nil
		})

		improved := false
		for _, cand := range candidates {
			if merged := cand.graft(current); merged != nil && Score(merged) < Score(current) {
				current = merged
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	return current
}

// neighbourhood returns the strip together with its non-pad terminal devices
// and every strip incident to those devices, which is the local problem the
// refinement phase frees when the strip alone cannot be fixed.
func neighbourhood(c *netlist.Circuit, strip string) (strips []string, devices []string) {
	stripSet := map[string]bool{strip: true}
	ms, err := c.Microstrip(strip)
	if err != nil {
		return []string{strip}, nil
	}
	for _, dev := range []string{ms.From.Device, ms.To.Device} {
		d, err := c.Device(dev)
		if err != nil || d.IsPad() {
			continue
		}
		devices = append(devices, dev)
		for _, incident := range c.StripsAt(dev) {
			stripSet[incident.Name] = true
		}
	}
	strips = sortedKeys(stripSet)
	return strips, devices
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
