package pilp

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"rficlayout/internal/conc"
	"rficlayout/internal/geom"
	"rficlayout/internal/ilpmodel"
	"rficlayout/internal/layout"
	"rficlayout/internal/milp"
	"rficlayout/internal/netlist"
)

// Options tunes the progressive flow.
type Options struct {
	// ChainPoints is the default chain-point count per microstrip in the
	// per-strip exact models (phase 2). Zero means 4.
	ChainPoints int
	// MaxChainPoints bounds chain-point insertion during refinement. Zero
	// means 8.
	MaxChainPoints int
	// Confinement is the τd window of phases 2–3. Zero means 40 µm.
	Confinement geom.Coord
	// PairRadius prunes non-overlap pairs farther apart than this. Zero
	// means 80 µm.
	PairRadius geom.Coord
	// StripTimeLimit bounds each per-strip ILP solve. Zero means 5 s. It is
	// sugar for a per-solve context deadline under the flow's context.
	StripTimeLimit time.Duration
	// PhaseTimeLimit bounds the global adjustment solve of phase 1. Zero
	// means 30 s. Like StripTimeLimit it derives a context deadline.
	PhaseTimeLimit time.Duration
	// StripNodeLimit, when positive, bounds each per-strip branch-and-bound
	// search by explored node count instead of only wall clock. Nodes are
	// processed in a deterministic order at every worker count, so a binding
	// node budget cuts the search at a path-independent point — unlike a
	// binding time limit, which cuts at a wall-clock-dependent one. This is
	// what lets benchmark harnesses run circuits whose strip solves do not
	// converge while keeping the byte-identical determinism contract.
	StripNodeLimit int
	// Phase1NodeLimit, when positive, bounds the phase-1 global-adjustment
	// branch-and-bound by explored node count, the same deterministic
	// path-independent cutoff StripNodeLimit provides for the per-strip
	// solves. The fuzz harness sets both so pathological circuits terminate
	// at a reproducible point instead of a wall-clock-dependent one.
	Phase1NodeLimit int
	// Workers bounds the worker pool that solves independent per-strip (and
	// per-rotation) subproblems concurrently. Zero means GOMAXPROCS; one
	// disables concurrency. The flow is deterministic: every worker count
	// produces the identical layout (see GenerateCtx).
	Workers int
	// MaxRefineIterations bounds phase 3. Zero means 3; a negative value
	// skips refinement entirely — benchmark harnesses use that to keep the
	// workload to phases whose solves converge deterministically.
	MaxRefineIterations int
	// TryRotations enables device-rotation exploration in phase 3.
	TryRotations bool
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

	// nodes accumulates branch-and-bound node counts across every MILP solve
	// of one flow invocation. GenerateCtx installs it; the pointer rides
	// along as Options is copied down the call tree, and concurrent strip
	// solvers add to it atomically.
	nodes *atomic.Int64
	// lpStats accumulates the simplex-level effort counters the same way.
	lpStats *lpCounters
	// maxGapBits tracks the worst relative incumbent/bound gap over the MILP
	// solves that returned an incumbent, as float64 bits (non-negative floats
	// order identically as uint64 bits, so an atomic CAS-max works).
	maxGapBits *atomic.Uint64
	// interrupted counts MILP solves stopped by context cancellation.
	interrupted *atomic.Int64
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
	return 8
}

func (o Options) confinement() geom.Coord {
	if o.Confinement > 0 {
		return o.Confinement
	}
	return geom.FromMicrons(40)
}

func (o Options) pairRadius() geom.Coord {
	if o.PairRadius > 0 {
		return o.PairRadius
	}
	return geom.FromMicrons(80)
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

// countSolve adds one MILP solve's effort — its node count and its LP-level
// counters — to the flow-wide totals. The totals are deterministic: the set
// of solves and each solve's counters are fixed by the determinism contract
// (absent binding time limits), and summation commutes, so concurrent
// workers cannot change them.
func (o Options) countSolve(r *milp.Result) {
	if r == nil {
		return
	}
	if o.nodes != nil {
		o.nodes.Add(int64(r.Nodes))
	}
	if o.lpStats != nil {
		o.lpStats.add(r)
	}
	if o.interrupted != nil && r.Cancelled {
		o.interrupted.Add(1)
	}
	// Fold the solve's incumbent gap into the flow-wide max. +Inf means "no
	// incumbent" and carries no bound information, so it is skipped.
	if o.maxGapBits != nil {
		if gap := r.Gap(); gap > 0 && !math.IsInf(gap, 1) {
			bits := math.Float64bits(gap)
			for {
				cur := o.maxGapBits.Load()
				if bits <= cur || o.maxGapBits.CompareAndSwap(cur, bits) {
					break
				}
			}
		}
	}
}

// LPStats aggregates the simplex-level effort of every MILP solve in one
// flow invocation — the LP-pivot counterpart to the branch-and-bound Nodes
// total. Like Nodes, every field is deterministic across worker counts.
type LPStats struct {
	milp.LPStats
	// WarmSeedAccepted and WarmSeedRejected count branch-and-bound warm-seed
	// outcomes (milp.Result.WarmSeedAccepted/Rejected) across the solves.
	WarmSeedAccepted int
	WarmSeedRejected int
}

// lpCounters is the atomic accumulator behind LPStats, shared down the call
// tree the same way Options.nodes is.
type lpCounters struct {
	pivots           atomic.Int64
	refactorizations atomic.Int64
	warmHits         atomic.Int64
	warmMisses       atomic.Int64
	coldSolves       atomic.Int64
	peakEta          atomic.Int64 // CAS-max, not a sum
	seedAccepted     atomic.Int64
	seedRejected     atomic.Int64
}

func (c *lpCounters) add(r *milp.Result) {
	c.pivots.Add(int64(r.LP.Pivots))
	c.refactorizations.Add(int64(r.LP.Refactorizations))
	c.warmHits.Add(int64(r.LP.WarmHits))
	c.warmMisses.Add(int64(r.LP.WarmMisses))
	c.coldSolves.Add(int64(r.LP.ColdSolves))
	if peak := int64(r.LP.PeakEta); peak > 0 {
		for {
			cur := c.peakEta.Load()
			if peak <= cur || c.peakEta.CompareAndSwap(cur, peak) {
				break
			}
		}
	}
	c.seedAccepted.Add(int64(r.WarmSeedAccepted))
	c.seedRejected.Add(int64(r.WarmSeedRejected))
}

func (c *lpCounters) snapshot() LPStats {
	return LPStats{
		LPStats: milp.LPStats{
			Pivots:           int(c.pivots.Load()),
			Refactorizations: int(c.refactorizations.Load()),
			WarmHits:         int(c.warmHits.Load()),
			WarmMisses:       int(c.warmMisses.Load()),
			ColdSolves:       int(c.coldSolves.Load()),
			PeakEta:          int(c.peakEta.Load()),
		},
		WarmSeedAccepted: int(c.seedAccepted.Load()),
		WarmSeedRejected: int(c.seedRejected.Load()),
	}
}

// milpOptions is the shared translation from flow options to one MILP
// solve's options: the warm-LP switch applies to every branch-and-bound tree
// the flow spawns, whatever its time limit or worker count.
func (o Options) milpOptions(timeLimit time.Duration, workers int) milp.SolveOptions {
	return milp.SolveOptions{
		TimeLimit:     timeLimit,
		Workers:       workers,
		DisableWarmLP: o.ColdLP,
	}
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
	// "shard=0 sharditer=5 shardtol=2000" and "pivot=dantzig core=sparse" stay
	// literal: cache keys, Dir entries, ring ownership and bench's serve-mix
	// pool all hash this string.
	return fmt.Sprintf("chain=%d maxchain=%d conf=%d pair=%d striplimit=%s phaselimit=%s stripnodes=%d p1nodes=%d refine=%d rot=%v shard=0 sharditer=5 shardtol=2000 pivot=dantzig core=sparse coldlp=%v",
		o.chainPoints(), o.maxChainPoints(), o.confinement(), o.pairRadius(),
		o.stripTimeLimit(), o.phaseTimeLimit(), o.StripNodeLimit, o.Phase1NodeLimit, o.refineIterations(), o.TryRotations,
		o.ColdLP)
}

// runJobs dispatches independent subproblems to the shared bounded pool:
// jobs skipped by cancellation leave their candidate slots nil, and a
// panicking job surfaces on this goroutine (where engine.Run's per-job
// recover can see it) instead of crashing the process from a worker.
func runJobs(ctx context.Context, workers, n int, fn func(int)) {
	conc.ForEach(ctx, workers, n, fn)
}

// Snapshot records the layout state after one phase of the flow, mirroring
// the per-phase snapshots of Figure 7.
type Snapshot struct {
	Phase      string
	Layout     *layout.Layout
	Metrics    layout.Metrics
	Violations int
	Elapsed    time.Duration
}

// Result is the outcome of the progressive flow.
type Result struct {
	Layout    *layout.Layout
	Snapshots []Snapshot
	Runtime   time.Duration
	// Nodes is the total number of branch-and-bound nodes explored across
	// every MILP solve of the flow — the solver-effort counterpart to the
	// wall-clock Runtime.
	Nodes int
	// LP aggregates the simplex-level effort counters (pivots,
	// refactorizations, warm-start outcomes) across the same solves.
	LP LPStats
	// Partial reports anytime degradation: the flow's context was cancelled
	// mid-run and (under Options.AcceptPartial) Layout holds the best layout
	// reached so far instead of the fully refined one. Partial results are
	// real layouts — constructed, routed, DRC-checkable — just not carried
	// through every remaining phase.
	Partial bool
	// PartialPhase names the last phase snapshot the partial layout reached
	// ("construct" when cancellation hit before phase 1 finished). Empty when
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

// Violations returns the design-rule violations of the final layout.
func (r *Result) Violations() []layout.Violation {
	return checkLayout(r.Layout)
}

// checkOptions are the DRC settings used throughout the flow: exact lengths
// within the 10 nm rounding tolerance, pins within 2 nm.
func checkLayout(l *layout.Layout) []layout.Violation {
	return l.Check(layout.CheckOptions{PinTolerance: 2})
}

// Score ranks layouts the way the flow does internally: design-rule
// violations dominate, then total bends, then accumulated length error.
// Lower is better. Exposed so the audit battery's mirror and rotate checks
// can compare layouts on the flow's own metric.
func Score(l *layout.Layout) float64 {
	m := l.Metrics()
	return 1e6*float64(len(checkLayout(l))) + 100*float64(m.TotalBends) + geom.Microns(m.TotalLengthError)
}

func score(l *layout.Layout) float64 { return Score(l) }

// Generate runs the full progressive flow on the circuit. It is shorthand
// for GenerateCtx with a background context.
func Generate(c *netlist.Circuit, opts Options) (*Result, error) {
	return GenerateCtx(context.Background(), c, opts)
}

// GenerateCtx runs the full progressive flow under a context. Cancellation
// stops the flow at the next solve boundary and returns the context error; a
// context that is already cancelled returns promptly without solving
// anything. With Options.AcceptPartial set, cancellation after the initial
// construction instead returns the best layout reached so far with
// Result.Partial set — anytime degradation: the caller trades refinement
// quality for a guaranteed layout under its deadline.
//
// Determinism: the phase-2 and phase-3 per-strip (and per-rotation)
// subproblems are solved concurrently on opts.Workers goroutines, but each
// subproblem starts from the same frozen snapshot of the layout and the
// results are merged sequentially in a fixed (worst-first, then strip-name)
// order, so the generated layout is byte-identical for every worker count —
// provided no per-solve time limit binds. A binding StripTimeLimit or
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
	opts.nodes = new(atomic.Int64)
	opts.lpStats = new(lpCounters)
	opts.maxGapBits = new(atomic.Uint64)
	opts.interrupted = new(atomic.Int64)
	res := &Result{}

	// finish seals the result with the flow-wide effort and gap totals; a
	// non-empty phase marks it as an anytime partial stopped at that phase.
	finish := func(l *layout.Layout, partialPhase string) *Result {
		res.Layout = l
		res.Runtime = time.Since(start)
		res.Nodes = int(opts.nodes.Load())
		res.LP = opts.lpStats.snapshot()
		res.MaxGap = math.Float64frombits(opts.maxGapBits.Load())
		res.InterruptedSolves = int(opts.interrupted.Load())
		if partialPhase != "" {
			res.Partial = true
			res.PartialPhase = partialPhase
		}
		return res
	}

	// Phase 1a: constructive placement and planar routing with blurred
	// device clearances.
	current, err := Construct(c)
	if err != nil {
		return nil, err
	}
	opts.logf("pilp: constructed initial layout: %s", current.Metrics())
	if err := ctx.Err(); err != nil {
		if !opts.AcceptPartial {
			return nil, err
		}
		res.addSnapshot("construct", current, time.Since(start))
		return finish(current, "construct"), nil
	}

	// Phase 1b: global coordinate adjustment — soft lengths, penalized
	// overlap, relative positions kept, topology fixed (Eq. 23–28).
	adjusted, err := globalAdjust(ctx, c, current, opts)
	if err != nil {
		opts.logf("pilp: global adjustment failed: %v", err)
	} else if adjusted != nil && score(adjusted) <= score(current) {
		current = adjusted
	}
	res.addSnapshot("phase1-blurred-routing", current, time.Since(start))
	opts.logf("pilp: phase 1 done: %s", current.Metrics())
	if err := ctx.Err(); err != nil {
		if !opts.AcceptPartial {
			return nil, err
		}
		return finish(current, "phase1-blurred-routing"), nil
	}

	// Phase 2: device visualization and overlap fixing — per-strip exact
	// length models against real device geometry.
	current = exactLengthPass(ctx, c, current, opts)
	res.addSnapshot("phase2-overlap-fixing", current, time.Since(start))
	opts.logf("pilp: phase 2 done: %s", current.Metrics())
	if err := ctx.Err(); err != nil {
		if !opts.AcceptPartial {
			return nil, err
		}
		return finish(current, "phase2-overlap-fixing"), nil
	}

	// Phase 3: iterative refinement with chain-point deletion/insertion and
	// device rotation.
	current = refine(ctx, c, current, opts)
	res.addSnapshot("phase3-refinement", current, time.Since(start))
	opts.logf("pilp: phase 3 done: %s", current.Metrics())
	if err := ctx.Err(); err != nil {
		if !opts.AcceptPartial {
			return nil, err
		}
		return finish(current, "phase3-refinement"), nil
	}

	return finish(current, ""), nil
}

func (r *Result) addSnapshot(phase string, l *layout.Layout, elapsed time.Duration) {
	r.Snapshots = append(r.Snapshots, Snapshot{
		Phase:      phase,
		Layout:     l.Clone(),
		Metrics:    l.Metrics(),
		Violations: len(checkLayout(l)),
		Elapsed:    elapsed,
	})
}

// globalAdjust solves the phase-1 model: every non-pad device and every
// strip coordinate may move within a generous confinement window, lengths
// are soft, overlap is penalized, and relative positions plus topology come
// from the constructed layout, so the model is a pure LP apart from the pad
// boundary choice (pads stay fixed here). Being the one large solve of the
// flow, it gets the full worker pool for its branch-and-bound LP evaluations.
func globalAdjust(ctx context.Context, c *netlist.Circuit, current *layout.Layout, opts Options) (*layout.Layout, error) {
	cfg, err := phase1Config(c, current, opts)
	if err != nil {
		return nil, err
	}
	freeDevices := []string{}
	for _, d := range c.NonPadDevices() {
		freeDevices = append(freeDevices, d.Name)
	}
	cfg.FreeDevices = freeDevices
	m, err := ilpmodel.Build(c, cfg)
	if err != nil {
		return nil, err
	}
	opts.logf("pilp: global adjustment model: %s", m.Stats())
	mo := opts.milpOptions(opts.phaseTimeLimit(), opts.workers())
	mo.MaxNodes = opts.Phase1NodeLimit
	lay, result, err := m.SolveAndExtractCtx(ctx, mo)
	opts.countSolve(result)
	if err != nil {
		return nil, err
	}
	if lay == nil {
		return nil, fmt.Errorf("pilp: global adjustment found no solution (status %v)", result.Status)
	}
	return lay, nil
}

// phase1Config builds the phase-1 model configuration: soft lengths,
// penalized overlap, frozen topology and relative positions from the
// constructed layout, generous confinement. globalAdjust sets the freedom:
// every non-pad device.
func phase1Config(c *netlist.Circuit, current *layout.Layout, opts Options) (ilpmodel.Config, error) {
	chainPoints := map[string]int{}
	for _, ms := range c.Microstrips {
		rs := current.Routed(ms.Name)
		if rs == nil {
			return ilpmodel.Config{}, fmt.Errorf("pilp: strip %q missing from constructed layout", ms.Name)
		}
		chainPoints[ms.Name] = len(rs.Path.Points)
	}
	return ilpmodel.Config{
		ChainPoints:       chainPoints,
		Fixed:             current,
		SoftLength:        true,
		OverlapSlack:      true,
		FixTopology:       true,
		RelativePositions: true,
		Confinement:       3 * opts.confinement(),
		PairRadius:        opts.pairRadius(),
	}, nil
}

// exactLengthPass drives every microstrip to its exact equivalent length with
// per-strip exact models, worst offenders first. The first solve attempt of
// every strip is an independent subproblem against the same frozen base
// layout, so all of them are dispatched to the worker pool at once; the
// results are then merged sequentially in the fixed worst-first order, with
// the full sequential escalation as fallback for strips whose precomputed
// candidate does not merge cleanly. The frozen-base pre-solve runs even with
// one worker: a contested strip then pays one extra solve before its
// escalation, but taking the old evolving-layout path at workers=1 would
// make the result depend on the worker count, which the determinism
// contract forbids.
func exactLengthPass(ctx context.Context, c *netlist.Circuit, current *layout.Layout, opts Options) *layout.Layout {
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
	candidates := make([]*layout.Layout, len(strips))
	runJobs(ctx, opts.workers(), len(strips), func(i int) {
		if lay, ok := solveStrips(ctx, c, base, []string{strips[i].Name}, opts.chainPoints(), nil, opts); ok {
			candidates[i] = lay
		}
	})

	for i, ms := range strips {
		if cand := candidates[i]; cand != nil {
			// The candidate differs from the frozen base only in this strip's
			// route: graft that route onto the evolving layout and keep it
			// when the strip comes out clean without hurting the score.
			if merged, ok := applyCandidate(current, cand, []string{ms.Name}, nil); ok {
				if score(merged) <= score(current) && stripClean(merged, ms.Name) {
					current = merged
					continue
				}
			}
		}
		current = solveStripToTarget(ctx, c, current, ms.Name, opts)
	}
	return current
}

// applyCandidate grafts the routes of the listed strips and the placements of
// the listed devices from a solved candidate onto a clone of base. Candidates
// are solved against a frozen snapshot of the layout; this is how their
// changes are merged into the possibly further-evolved current layout.
func applyCandidate(base, candidate *layout.Layout, strips, devices []string) (*layout.Layout, bool) {
	out := base.Clone()
	for _, name := range devices {
		pd := candidate.Placed(name)
		if pd == nil || out.Place(name, pd.Center, pd.Orient) != nil {
			return nil, false
		}
	}
	for _, name := range strips {
		rs := candidate.Routed(name)
		if rs == nil || out.Route(name, rs.Path.Points...) != nil {
			return nil, false
		}
	}
	return out, true
}

// solveStripToTarget re-solves a single strip (growing its chain points when
// needed) until its exact length is met without new violations, keeping the
// best layout found. When the strip alone cannot be fixed — typically because
// a strip sharing the same pin blocks its detour corridor — the strips of the
// whole junction are re-solved together.
func solveStripToTarget(ctx context.Context, c *netlist.Circuit, current *layout.Layout, strip string, opts Options) *layout.Layout {
	best := current
	bestScore := score(current)
	adopt := func(candidate *layout.Layout, ok bool) bool {
		if !ok {
			return false
		}
		if s := score(candidate); s < bestScore {
			best, bestScore = candidate, s
		}
		return stripClean(candidate, strip)
	}
	for n := opts.chainPoints(); n <= opts.maxChainPoints(); n++ {
		candidate, ok := solveStrips(ctx, c, current, []string{strip}, n, nil, opts)
		if adopt(candidate, ok) {
			return best
		}
	}
	if partners := junctionPartners(c, strip); len(partners) > 1 {
		for n := opts.chainPoints(); n <= opts.maxChainPoints(); n++ {
			candidate, ok := solveStrips(ctx, c, best, partners, n, nil, opts)
			if adopt(candidate, ok) {
				return best
			}
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
	for _, v := range checkLayout(l) {
		if v.Subject == strip || v.Other == strip {
			return false
		}
	}
	return true
}

// solveStrips builds and solves an exact model in which the listed strips
// (and optionally the listed devices, confined to τd) are free while the rest
// of the layout stays fixed. It returns the extracted layout and whether a
// solution was found. The per-strip models are small, so their
// branch-and-bound runs single-worker: concurrency comes from solving many
// strips at once, not from splitting one solve.
func solveStrips(ctx context.Context, c *netlist.Circuit, current *layout.Layout, strips []string, chainPoints int, freeDevices []string, opts Options) (*layout.Layout, bool) {
	warm := current.Clone()
	cpMap := map[string]int{}
	for _, strip := range strips {
		rs := warm.Routed(strip)
		if rs == nil {
			return nil, false
		}
		resampled := resamplePath(rs.Path.Points, chainPoints)
		if err := warm.Route(strip, resampled...); err != nil {
			return nil, false
		}
		cpMap[strip] = len(resampled)
	}
	if freeDevices == nil {
		freeDevices = []string{}
	}
	cfg := ilpmodel.Config{
		ChainPoints: cpMap,
		FreeStrips:  strips,
		FreeDevices: freeDevices,
		Fixed:       warm,
		PairRadius:  opts.pairRadius(),
	}
	if len(freeDevices) > 0 {
		cfg.Confinement = opts.confinement()
	}
	m, err := ilpmodel.Build(c, cfg)
	if err != nil {
		opts.logf("pilp: model build for %v failed: %v", strips, err)
		return nil, false
	}
	mo := opts.milpOptions(opts.stripTimeLimit(), 0)
	mo.MaxNodes = opts.StripNodeLimit
	lay, result, err := m.SolveAndExtractCtx(ctx, mo)
	opts.countSolve(result)
	if err != nil || lay == nil {
		return nil, false
	}
	return lay, true
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

// refineCandidate is one precomputed phase-3 improvement: the solved layout
// plus the strip and device names whose geometry it changed relative to the
// frozen base it was solved against.
type refineCandidate struct {
	layout  *layout.Layout
	strips  []string
	devices []string
}

// refine is phase 3: chain points without bends are removed, strips that
// still violate a rule get more chain points, neighbouring devices may move
// within τd, and device rotations are explored. Each iteration dispatches the
// escalation of every troubled strip to the worker pool against a frozen copy
// of the layout and merges the improvements sequentially in strip-name order.
func refine(ctx context.Context, c *netlist.Circuit, current *layout.Layout, opts Options) *layout.Layout {
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
		if score(simplified) <= score(current) {
			current = simplified
		}

		violations := checkLayout(current)
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
		before := score(base)
		candidates := make([]*refineCandidate, len(names))
		runJobs(ctx, opts.workers(), len(names), func(i int) {
			strip := names[i]
			for n := opts.chainPoints(); n <= opts.maxChainPoints(); n++ {
				// First with only the strip free, then with its non-pad
				// terminal devices (and their other strips) free within τd —
				// the device-movement freedom of phase 3.
				freed, devs := []string{strip}, []string(nil)
				candidate, ok := solveStrips(ctx, c, base, freed, n, nil, opts)
				if !ok || score(candidate) >= before {
					freed, devs = neighbourhood(c, strip)
					candidate, ok = solveStrips(ctx, c, base, freed, n, devs, opts)
				}
				if !ok {
					continue
				}
				if score(candidate) < before {
					candidates[i] = &refineCandidate{layout: candidate, strips: freed, devices: devs}
					return
				}
			}
		})

		improved := false
		for i := range names {
			rc := candidates[i]
			if rc == nil {
				continue
			}
			merged, ok := applyCandidate(current, rc.layout, rc.strips, rc.devices)
			if !ok {
				continue
			}
			if score(merged) < score(current) {
				current = merged
				improved = true
			}
		}

		if opts.TryRotations && len(checkLayout(current)) > 0 {
			var rotated bool
			current, rotated = tryRotations(ctx, c, current, opts)
			improved = improved || rotated
		}
		if !improved {
			break
		}
	}
	return current
}

// tryRotations explores the three non-identity orientations of every device
// that still participates in violations, re-solving its incident strips each
// time. All device×orientation subproblems run concurrently against the same
// frozen base layout; per device (in name order) the best-scoring rotation is
// merged when it improves the evolving layout.
func tryRotations(ctx context.Context, c *netlist.Circuit, current *layout.Layout, opts Options) (*layout.Layout, bool) {
	violations := checkLayout(current)
	devices := map[string]bool{}
	for _, v := range violations {
		if d, err := c.Device(v.Subject); err == nil && !d.IsPad() {
			devices[v.Subject] = true
		}
		if v.Other != "" {
			if d, err := c.Device(v.Other); err == nil && !d.IsPad() {
				devices[v.Other] = true
			}
		}
	}

	incidentOf := func(name string) []string {
		var incident []string
		for _, ms := range c.StripsAt(name) {
			incident = append(incident, ms.Name)
		}
		return incident
	}

	type rotationJob struct {
		device string
		orient geom.Orientation
	}
	var jobs []rotationJob
	base := current
	for _, name := range sortedKeys(devices) {
		if base.Placed(name) == nil {
			continue
		}
		for _, o := range []geom.Orientation{geom.R90, geom.R180, geom.R270} {
			jobs = append(jobs, rotationJob{device: name, orient: o})
		}
	}
	results := make([]*layout.Layout, len(jobs))
	runJobs(ctx, opts.workers(), len(jobs), func(i int) {
		job := jobs[i]
		pd := base.Placed(job.device)
		candidate := base.Clone()
		if err := candidate.Place(job.device, pd.Center, pd.Orient.Plus(job.orient)); err != nil {
			return
		}
		// Re-solve all incident strips together against the rotated pins.
		next, solved := solveStrips(ctx, c, candidate, incidentOf(job.device), opts.chainPoints(), nil, opts)
		if solved {
			results[i] = next
		}
	})

	improved := false
	for _, name := range sortedKeys(devices) {
		bestScore := score(current)
		var bestMerged *layout.Layout
		for i, job := range jobs {
			if job.device != name || results[i] == nil {
				continue
			}
			merged, ok := applyCandidate(current, results[i], incidentOf(name), []string{name})
			if !ok {
				continue
			}
			if s := score(merged); s < bestScore {
				bestScore = s
				bestMerged = merged
			}
		}
		if bestMerged != nil {
			current = bestMerged
			improved = true
		}
	}
	return current, improved
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
