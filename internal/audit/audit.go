package audit

import (
	"context"
	"fmt"
	"time"

	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
)

// Check names, in battery order.
const (
	// CheckReorder: shuffling device/microstrip/pin declaration order must
	// leave the canonical text and the solved layout byte-identical
	// (canonicalization invariance).
	CheckReorder = "reorder"
	// CheckRename: renaming every object with an order-preserving mapping
	// must reproduce the identical geometry under the new names.
	CheckRename = "rename"
	// CheckRescale: multiplying every length by an integer factor must
	// reproduce the layout-quality metrics in the finer unit — equal
	// violation counts (at equally rescaled tolerances), equal bend totals,
	// and per-strip length errors that scale with the factor.
	CheckRescale = "rescale"
	// CheckMirror: negating every pin-offset X states the geometrically
	// mirrored problem, whose optimal score equals the base problem's by
	// symmetry. Two assertions: mirroring twice restores the byte-identical
	// canonical netlist (the transform is a true involution), and the
	// mirrored solve's score stays inside the mirror-ratio envelope of the
	// base. The envelope is wide: the constructive phase orders and routes
	// by coordinates, so mirroring flips every heuristic tie-break and at
	// fuzz-scale node budgets several-fold violation swings are an observed
	// property of the flow (a known chirality sensitivity, not a
	// determinism bug) — the check guards against outright collapse.
	CheckMirror = "mirror"
	// CheckRotate: swapping the area's and every device's width and height
	// and mapping every pin offset (x, y) → (−y, x) states the problem
	// rotated a quarter turn, whose optimal score equals the base problem's
	// by congruence. Two assertions, shaped exactly like the mirror check:
	// rotating four times restores the byte-identical canonical netlist, and
	// the rotated solve's score stays inside the rotate-ratio envelope of the
	// base. The envelope is as wide as the mirror's and for the same reason —
	// the constructive phase orders and routes by coordinates, so rotation
	// re-deals every heuristic tie-break (and additionally exchanges the
	// horizontal and vertical routing regimes), which at fuzz-scale node
	// budgets swings violation counts several-fold without indicating a bug.
	CheckRotate = "rotate"
	// CheckWarmCold: disabling LP warm starts must produce the byte-identical
	// layout.
	CheckWarmCold = "warm-cold"
	// CheckWorkers: every worker count must produce the byte-identical
	// layout.
	CheckWorkers = "workers"
)

// AllChecks lists every check in battery order.
var AllChecks = []string{
	CheckReorder, CheckRename, CheckRescale, CheckMirror, CheckRotate,
	CheckWarmCold, CheckWorkers,
}

// Options tunes the battery.
type Options struct {
	// Solve is the base flow configuration. Harnesses should bound solves by
	// node budgets (StripNodeLimit/Phase1NodeLimit), not wall clock:
	// binding time limits break the byte-equality relations. Solve.Workers
	// is the base worker count; zero means 1 here (not GOMAXPROCS), so the
	// workers check compares against a fixed reference.
	Solve pilp.Options
	// Checks selects a subset of AllChecks; nil runs all of them.
	Checks []string
	// RescaleFactor is the unit-rescaling multiplier. Zero means 2.
	RescaleFactor int64
	// MirrorRatio is the allowed multiplicative score divergence between the
	// mirrored and the base solve (in either direction). Zero means 8:
	// mirroring flips every tie-break of the constructive heuristic, and at
	// fuzz-scale node budgets up to ~5x violation swings are empirically
	// normal — the envelope flags chirality-driven collapse, not wobble.
	MirrorRatio float64
	// MirrorSlack is the absolute score slack of the mirror envelope. Zero
	// means 2e6, two violations — a near-perfect base score must not turn
	// every residual mirrored violation into a failure.
	MirrorSlack float64
	// RotateRatio is the allowed multiplicative score divergence between the
	// quarter-turn-rotated and the base solve (in either direction). Zero
	// means 8, calibrated the same way as MirrorRatio: the 54-seed fuzz
	// battery at budget 10 stays inside it with the same margin the mirror
	// check has, and rotation perturbs the heuristics at least as much
	// (every tie-break re-dealt plus the routing regimes exchanged).
	RotateRatio float64
	// RotateSlack is the absolute score slack of the rotate envelope. Zero
	// means 2e6, two violations, matching MirrorSlack.
	RotateSlack float64
	// ExtraWorkers are the worker counts compared against the base solve by
	// the workers check. Nil means {4}.
	ExtraWorkers []int
}

func (o Options) rescaleFactor() int64 {
	if o.RescaleFactor > 1 {
		return o.RescaleFactor
	}
	return 2
}

func (o Options) mirrorRatio() float64 {
	if o.MirrorRatio > 0 {
		return o.MirrorRatio
	}
	return 8
}

func (o Options) mirrorSlack() float64 {
	if o.MirrorSlack > 0 {
		return o.MirrorSlack
	}
	return 2e6
}

func (o Options) rotateRatio() float64 {
	if o.RotateRatio > 0 {
		return o.RotateRatio
	}
	return 8
}

func (o Options) rotateSlack() float64 {
	if o.RotateSlack > 0 {
		return o.RotateSlack
	}
	return 2e6
}

func (o Options) extraWorkers() []int {
	if len(o.ExtraWorkers) > 0 {
		return o.ExtraWorkers
	}
	return []int{4}
}

func (o Options) checks() []string {
	if len(o.Checks) > 0 {
		return o.Checks
	}
	return AllChecks
}

// CheckResult is the outcome of one metamorphic check.
type CheckResult struct {
	Name   string `json:"name"`
	Passed bool   `json:"passed"`
	// Detail explains a failure; empty on a pass.
	Detail string `json:"detail,omitempty"`
}

// Report is the outcome of the whole battery on one circuit.
type Report struct {
	Circuit string        `json:"circuit"`
	Results []CheckResult `json:"checks"`
	// Nodes is the branch-and-bound node total across every solve the
	// battery ran — deterministic, so it may appear in reproducible output.
	Nodes int `json:"nodes"`
	// Runtime is the battery wall clock. Scheduling-dependent; harnesses
	// that promise byte-identical output must exclude it.
	Runtime time.Duration `json:"-"`
}

// Passed reports whether every check passed.
func (r *Report) Passed() bool {
	for _, cr := range r.Results {
		if !cr.Passed {
			return false
		}
	}
	return true
}

// Failed returns the failing checks.
func (r *Report) Failed() []CheckResult {
	var out []CheckResult
	for _, cr := range r.Results {
		if !cr.Passed {
			out = append(out, cr)
		}
	}
	return out
}

// DefaultSolveOptions returns the flow configuration the fuzz harness uses:
// phase 3 skipped and every search bounded by deterministic node budgets, so
// circuits that would not converge still terminate at a path-independent
// point and the byte-equality relations hold. budget is the per-strip node
// budget (zero means 25); the phase-1 budget scales with it.
func DefaultSolveOptions(budget int) pilp.Options {
	if budget <= 0 {
		budget = 25
	}
	return pilp.Options{
		ChainPoints:         2,
		MaxChainPoints:      3,
		MaxRefineIterations: -1,
		StripNodeLimit:      budget,
		Phase1NodeLimit:     40 * budget,
		// Tight geometric windows keep the per-strip models small: simplex
		// pivot cost grows with the window, and on wide-aspect fuzz circuits
		// the default 40 µm window makes single solves ~20x slower for no
		// measurable quality gain at fuzz-scale node budgets.
		Confinement: geom.FromMicrons(10),
		PairRadius:  geom.FromMicrons(30),
		// Generous wall-clock ceilings that the node budgets undercut:
		// binding time limits would reintroduce nondeterminism.
		StripTimeLimit: 60 * time.Second,
		PhaseTimeLimit: 300 * time.Second,
		Workers:        1,
	}
}

// Run executes the battery on one circuit. A context error aborts the
// battery and surfaces as the returned error (never as a bogus check
// failure); any other solver error fails the check that triggered it.
func Run(ctx context.Context, c *netlist.Circuit, opts Options) (*Report, error) {
	start := time.Now()
	if opts.Solve.Workers == 0 {
		opts.Solve.Workers = 1
	}
	rep := &Report{Circuit: c.Name}

	base, err := pilp.GenerateCtx(ctx, c, opts.Solve)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, fmt.Errorf("audit: base solve of %s: %w", c.Name, err)
	}
	rep.Nodes += base.Nodes

	for _, name := range opts.checks() {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var cr CheckResult
		switch name {
		case CheckReorder:
			cr = checkReorder(ctx, c, base, opts, rep)
		case CheckRename:
			cr = checkRename(ctx, c, base, opts, rep)
		case CheckRescale:
			cr = checkRescale(ctx, c, base, opts, rep)
		case CheckMirror:
			cr = checkMirror(ctx, c, base, opts, rep)
		case CheckRotate:
			cr = checkRotate(ctx, c, base, opts, rep)
		case CheckWarmCold:
			cr = checkWarmCold(ctx, c, base, opts, rep)
		case CheckWorkers:
			cr = checkWorkers(ctx, c, base, opts, rep)
		default:
			return nil, fmt.Errorf("audit: unknown check %q", name)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep.Results = append(rep.Results, cr)
	}
	rep.Runtime = time.Since(start)
	return rep, nil
}

// resolve runs one transformed solve, charging its effort to the report.
func resolve(ctx context.Context, c *netlist.Circuit, opts pilp.Options, rep *Report) (*pilp.Result, error) {
	res, err := pilp.GenerateCtx(ctx, c, opts)
	if err != nil {
		return nil, err
	}
	rep.Nodes += res.Nodes
	return res, nil
}

func failf(name, format string, args ...interface{}) CheckResult {
	return CheckResult{Name: name, Passed: false, Detail: fmt.Sprintf(format, args...)}
}

func pass(name string) CheckResult { return CheckResult{Name: name, Passed: true} }

// checkReorder: canonical text and solved layout must be invariant under
// declaration-order shuffling.
func checkReorder(ctx context.Context, c *netlist.Circuit, base *pilp.Result, opts Options, rep *Report) CheckResult {
	shuffled := reordered(c)
	if netlist.Canonical(shuffled) != netlist.Canonical(c) {
		return failf(CheckReorder, "canonical text changed under declaration reordering")
	}
	res, err := resolve(ctx, shuffled, opts.Solve, rep)
	if err != nil {
		return failf(CheckReorder, "solving reordered circuit: %v", err)
	}
	if layout.Format(res.Layout) != layout.Format(base.Layout) {
		return failf(CheckReorder, "layout differs after declaration reordering")
	}
	return pass(CheckReorder)
}

// checkRename: an order-preserving rename must reproduce identical geometry
// under the new names.
func checkRename(ctx context.Context, c *netlist.Circuit, base *pilp.Result, opts Options, rep *Report) CheckResult {
	rc, mapping := renamed(c)
	res, err := resolve(ctx, rc, opts.Solve, rep)
	if err != nil {
		return failf(CheckRename, "solving renamed circuit: %v", err)
	}
	for _, d := range c.Devices {
		b := base.Layout.Placed(d.Name)
		r := res.Layout.Placed(mapping[d.Name])
		if (b == nil) != (r == nil) {
			return failf(CheckRename, "device %s placed in only one of the two layouts", d.Name)
		}
		if b == nil {
			continue
		}
		if !b.Center.Eq(r.Center) || b.Orient != r.Orient {
			return failf(CheckRename, "device %s moved under rename: %v/%v vs %v/%v",
				d.Name, b.Center, b.Orient, r.Center, r.Orient)
		}
	}
	for _, ms := range c.Microstrips {
		b := base.Layout.Routed(ms.Name)
		r := res.Layout.Routed(mapping[ms.Name])
		if (b == nil) != (r == nil) {
			return failf(CheckRename, "strip %s routed in only one of the two layouts", ms.Name)
		}
		if b == nil {
			continue
		}
		if len(b.Path.Points) != len(r.Path.Points) {
			return failf(CheckRename, "strip %s changed chain points under rename", ms.Name)
		}
		for i := range b.Path.Points {
			if !b.Path.Points[i].Eq(r.Path.Points[i]) {
				return failf(CheckRename, "strip %s rerouted under rename at point %d", ms.Name, i)
			}
		}
	}
	return pass(CheckRename)
}

// checkRescale: solving the k-times-rescaled circuit (with equally rescaled
// flow windows and check tolerances) must reproduce the base layout quality
// in the finer unit: equal violation counts, equal bend totals, and a total
// length error within the rescale envelope of k times the base.
func checkRescale(ctx context.Context, c *netlist.Circuit, base *pilp.Result, opts Options, rep *Report) CheckResult {
	k := opts.rescaleFactor()
	sc := rescaled(c, k)
	so := opts.Solve
	// The flow's geometric windows are lengths too; leaving them in the old
	// unit would state a different problem.
	so.Confinement = resolveConfinement(opts.Solve) * k
	so.PairRadius = resolvePairRadius(opts.Solve) * k
	res, err := resolve(ctx, sc, so, rep)
	if err != nil {
		return failf(CheckRescale, "solving rescaled circuit: %v", err)
	}

	baseViol := len(base.Layout.Check(layout.CheckOptions{PinTolerance: 2}))
	// The DRC tolerances are lengths: rescale them with the unit.
	scaledViol := len(res.Layout.Check(layout.CheckOptions{
		LengthTolerance: 10 * k,
		PinTolerance:    2 * k,
	}))
	if scaledViol != baseViol {
		return failf(CheckRescale, "violations changed under x%d rescale: %d vs %d", k, scaledViol, baseViol)
	}
	bm, sm := base.Layout.Metrics(), res.Layout.Metrics()
	if bm.TotalBends != sm.TotalBends {
		return failf(CheckRescale, "total bends changed under x%d rescale: %d vs %d", k, sm.TotalBends, bm.TotalBends)
	}
	// Integer rounding inside the constructive serpentine shifts coordinates
	// by up to k−1 nm per division; allow the accumulated length error one
	// strip-width of drift per strip on top of exact scaling.
	slack := geom.Coord(len(c.Microstrips)) * c.Tech.MicrostripWidth * k
	if diff := geom.AbsCoord(sm.TotalLengthError - k*bm.TotalLengthError); diff > slack {
		return failf(CheckRescale, "total length error %0.3fµm not within %0.3fµm of %d x %0.3fµm",
			geom.Microns(sm.TotalLengthError), geom.Microns(slack), k, geom.Microns(bm.TotalLengthError))
	}
	return pass(CheckRescale)
}

// resolveConfinement mirrors pilp's internal default (40 µm) so the rescale
// check can scale the effective value rather than the zero sentinel.
func resolveConfinement(o pilp.Options) geom.Coord {
	if o.Confinement > 0 {
		return o.Confinement
	}
	return geom.FromMicrons(40)
}

func resolvePairRadius(o pilp.Options) geom.Coord {
	if o.PairRadius > 0 {
		return o.PairRadius
	}
	return geom.FromMicrons(80)
}

// checkMirror: see CheckMirror. The involution half is exact; the score half
// is the wide collapse envelope — a tight envelope would be unsound, the
// constructive heuristic is genuinely chirality-sensitive (solving the
// mirrored problem is NOT solving the problem and mirroring the answer).
func checkMirror(ctx context.Context, c *netlist.Circuit, base *pilp.Result, opts Options, rep *Report) CheckResult {
	mc := mirroredX(c)
	if netlist.Canonical(mirroredX(mc)) != netlist.Canonical(c) {
		return failf(CheckMirror, "mirroring twice did not restore the canonical netlist")
	}
	res, err := resolve(ctx, mc, opts.Solve, rep)
	if err != nil {
		return failf(CheckMirror, "solving mirrored circuit: %v", err)
	}
	bs, ms := pilp.Score(base.Layout), pilp.Score(res.Layout)
	lo, hi := bs, ms
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > lo*opts.mirrorRatio()+opts.mirrorSlack() {
		return failf(CheckMirror, "mirrored score %.1f vs base %.1f exceeds the %gx collapse envelope",
			ms, bs, opts.mirrorRatio())
	}
	return pass(CheckMirror)
}

// checkRotate: see CheckRotate. The four-times-identity half is exact; the
// score half reuses the mirror check's collapse-envelope shape, because a
// quarter turn, like a reflection, states a congruent problem that the
// coordinate-ordered heuristics nevertheless attack in a different order.
func checkRotate(ctx context.Context, c *netlist.Circuit, base *pilp.Result, opts Options, rep *Report) CheckResult {
	rc := rotated90(c)
	if netlist.Canonical(rotated90(rotated90(rotated90(rc)))) != netlist.Canonical(c) {
		return failf(CheckRotate, "rotating four times did not restore the canonical netlist")
	}
	res, err := resolve(ctx, rc, opts.Solve, rep)
	if err != nil {
		return failf(CheckRotate, "solving rotated circuit: %v", err)
	}
	bs, rs := pilp.Score(base.Layout), pilp.Score(res.Layout)
	lo, hi := bs, rs
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > lo*opts.rotateRatio()+opts.rotateSlack() {
		return failf(CheckRotate, "rotated score %.1f vs base %.1f exceeds the %gx collapse envelope",
			rs, bs, opts.rotateRatio())
	}
	return pass(CheckRotate)
}

// checkWarmCold: warm-started and cold LP solves must return byte-identical
// layouts.
func checkWarmCold(ctx context.Context, c *netlist.Circuit, base *pilp.Result, opts Options, rep *Report) CheckResult {
	cold := opts.Solve
	cold.ColdLP = true
	res, err := resolve(ctx, c, cold, rep)
	if err != nil {
		return failf(CheckWarmCold, "cold-LP solve: %v", err)
	}
	if layout.Format(res.Layout) != layout.Format(base.Layout) {
		return failf(CheckWarmCold, "cold-LP layout differs from warm-started layout")
	}
	return pass(CheckWarmCold)
}

// checkWorkers: every worker count must return the byte-identical layout.
func checkWorkers(ctx context.Context, c *netlist.Circuit, base *pilp.Result, opts Options, rep *Report) CheckResult {
	want := layout.Format(base.Layout)
	for _, w := range opts.extraWorkers() {
		if w == opts.Solve.Workers {
			continue
		}
		so := opts.Solve
		so.Workers = w
		res, err := resolve(ctx, c, so, rep)
		if err != nil {
			return failf(CheckWorkers, "solve at %d workers: %v", w, err)
		}
		if layout.Format(res.Layout) != want {
			return failf(CheckWorkers, "layout differs between %d and %d workers", opts.Solve.Workers, w)
		}
	}
	return pass(CheckWorkers)
}
