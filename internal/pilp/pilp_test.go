package pilp

import (
	"context"
	"testing"
	"time"

	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
	"rficlayout/internal/tech"
)

// cascadeCircuit builds a small but representative RF chain:
// PIN → M1 → M2 → POUT with a shunt capacitor stub on the M1–M2 node.
func cascadeCircuit() *netlist.Circuit {
	c := netlist.NewCircuit("cascade", tech.Default90nm(), geom.FromMicrons(500), geom.FromMicrons(380))
	for _, name := range []string{"M1", "M2"} {
		d := netlist.NewDevice(name, netlist.Transistor, geom.FromMicrons(40), geom.FromMicrons(30))
		d.AddPin("in", geom.PtMicrons(-20, 0), 0)
		d.AddPin("out", geom.PtMicrons(20, 0), 0)
		c.AddDevice(d)
	}
	cap := netlist.NewDevice("C1", netlist.Capacitor, geom.FromMicrons(50), geom.FromMicrons(40))
	cap.AddPin("p", geom.PtMicrons(0, -20), 0)
	c.AddDevice(cap)
	c.AddDevice(netlist.NewPad("PIN", c.Tech.PadSize))
	c.AddDevice(netlist.NewPad("POUT", c.Tech.PadSize))

	c.Connect("TL1", "PIN", "p", "M1", "in", geom.FromMicrons(150))
	c.Connect("TL2", "M1", "out", "M2", "in", geom.FromMicrons(180))
	c.Connect("TL3", "M2", "out", "POUT", "p", geom.FromMicrons(160))
	c.Connect("TLC", "M1", "out", "C1", "p", geom.FromMicrons(90))
	return c
}

func fastOptions() Options {
	return Options{
		ChainPoints:         4,
		MaxChainPoints:      6,
		StripTimeLimit:      3 * time.Second,
		PhaseTimeLimit:      10 * time.Second,
		MaxRefineIterations: 2,
	}
}

func TestOptionDefaults(t *testing.T) {
	var o Options
	if o.chainPoints() != 4 || o.maxChainPoints() != 8 {
		t.Error("chain point defaults wrong")
	}
	// A start above 8 without MaxChainPoints must still leave the phase-2
	// and phase-3 escalations a chain-point count to solve.
	if o := (Options{ChainPoints: 10}); o.maxChainPoints() != 10 {
		t.Errorf("maxChainPoints with ChainPoints 10 = %d, want 10", o.maxChainPoints())
	}
	if o.confinement() != DefaultConfinement || o.pairRadius() != DefaultPairRadius {
		t.Error("geometry defaults wrong")
	}
	if o.stripTimeLimit() != 5*time.Second || o.phaseTimeLimit() != 30*time.Second {
		t.Error("time limit defaults wrong")
	}
	if o.refineIterations() != 3 {
		t.Error("refine default wrong")
	}
	o.logf("no logger must not panic")
}

func TestOrderDevices(t *testing.T) {
	c := cascadeCircuit()
	chain, stubs := orderDevices(c)
	if len(chain) < 4 {
		t.Fatalf("chain too short: %v", chain)
	}
	if chain[0] != "PIN" {
		t.Errorf("chain should start at a pad, got %v", chain)
	}
	onChain := map[string]bool{}
	for _, n := range chain {
		onChain[n] = true
	}
	total := len(chain) + len(stubs)
	if total != len(c.Devices) {
		t.Errorf("chain+stubs covers %d of %d devices", total, len(c.Devices))
	}
	for stub, anchor := range stubs {
		if onChain[stub] {
			t.Errorf("stub %s is also on the chain", stub)
		}
		if !onChain[anchor] {
			t.Errorf("stub %s anchored at non-chain device %s", stub, anchor)
		}
	}
}

func TestLongestPathFrom(t *testing.T) {
	adj := map[string][]string{
		"a": {"b"},
		"b": {"a", "c", "d"},
		"c": {"b"},
		"d": {"b", "e"},
		"e": {"d"},
	}
	path := longestPathFrom("a", adj)
	if len(path) != 4 { // a-b-d-e
		t.Errorf("longest path = %v", path)
	}
	if got := longestPathFrom("", adj); got != nil {
		t.Errorf("empty start should give nil, got %v", got)
	}
}

func TestConstructProducesCompletePlanarLayout(t *testing.T) {
	c := cascadeCircuit()
	l, err := Construct(c)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Complete() {
		t.Fatal("constructed layout incomplete")
	}
	vs := l.Check(layout.CheckOptions{PinTolerance: 2})
	if n := layout.CountViolations(vs, layout.CrossingViolation); n != 0 {
		t.Errorf("constructed layout has %d crossings: %v", n, vs)
	}
	if n := layout.CountViolations(vs, layout.PadNotOnBoundary); n != 0 {
		t.Errorf("pads off boundary: %v", vs)
	}
	if n := layout.CountViolations(vs, layout.PinMismatch); n != 0 {
		t.Errorf("route endpoints off pins: %v", vs)
	}
}

func TestResamplePath(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 80)}
	grown := resamplePath(pts, 5)
	if len(grown) != 5 {
		t.Fatalf("grown to %d points", len(grown))
	}
	pl := geom.Polyline{Points: grown, Width: 1}
	if pl.Length() != 180 {
		t.Errorf("length changed to %d", pl.Length())
	}
	if pl.Bends() != 1 {
		t.Errorf("bends changed to %d", pl.Bends())
	}
	// Shrinking only removes redundant points; a minimal path stays as is.
	same := resamplePath(grown, 2)
	if len(same) != 3 {
		t.Errorf("simplified to %d points, want the 3 structural ones", len(same))
	}
	// All legs stay axis-parallel.
	for i := 1; i < len(grown); i++ {
		if grown[i-1].X != grown[i].X && grown[i-1].Y != grown[i].Y {
			t.Errorf("leg %d not axis-parallel", i)
		}
	}
}

func TestNeighbourhood(t *testing.T) {
	c := cascadeCircuit()
	strips, devs := neighbourhood(c, "TL2")
	if len(devs) != 2 {
		t.Errorf("devices = %v", devs)
	}
	found := map[string]bool{}
	for _, s := range strips {
		found[s] = true
	}
	for _, want := range []string{"TL1", "TL2", "TL3", "TLC"} {
		if !found[want] {
			t.Errorf("neighbourhood misses %s: %v", want, strips)
		}
	}
	// Unknown strips degrade gracefully.
	strips, devs = neighbourhood(c, "nope")
	if len(strips) != 1 || devs != nil {
		t.Errorf("unknown strip neighbourhood = %v, %v", strips, devs)
	}
}

func TestGenerateCascade(t *testing.T) {
	c := cascadeCircuit()
	opts := fastOptions()
	if testing.Short() {
		// Reduced-iteration variant: one refinement pass, minimal chain-point
		// growth and tight solve budgets keep the full three-phase flow under
		// a few seconds while still exercising every phase end to end.
		opts.ChainPoints = 3
		opts.MaxChainPoints = 3
		opts.MaxRefineIterations = 1
		opts.StripTimeLimit = 500 * time.Millisecond
		opts.PhaseTimeLimit = 2 * time.Second
	}
	res, err := GenerateCtx(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Layout == nil || !res.Layout.Complete() {
		t.Fatal("flow produced an incomplete layout")
	}
	if len(res.Snapshots) != 3 {
		t.Errorf("snapshots = %d, want 3 phases", len(res.Snapshots))
	}
	if testing.Short() {
		// The reduced budgets cannot promise exact lengths; completeness and
		// the phase snapshots above are the -short contract.
		return
	}
	// Planarity and spacing must hold unconditionally. Exact lengths are the
	// goal, but the from-scratch branch-and-bound cannot always close the
	// hardest junction detours within the per-strip time limit, so a small
	// residual mismatch is tolerated here (and reported honestly by the
	// benchmark harness).
	for _, v := range Violations(res.Layout) {
		if v.Kind != layout.LengthMismatch {
			t.Errorf("unexpected violation: %v", v)
		}
	}
	m := res.Layout.Metrics()
	if m.TotalBends > 12 {
		t.Errorf("total bends = %d, suspiciously many for this small circuit", m.TotalBends)
	}
	// At least half of the strips must be matched exactly, and the residual
	// mismatch must stay bounded.
	delta := c.Tech.BendCompensation
	exact := 0
	for _, rs := range res.Layout.RoutedStrips() {
		if geom.AbsCoord(rs.LengthError(delta)) <= 10 {
			exact++
		}
	}
	if exact*2 < len(res.Layout.RoutedStrips()) {
		t.Errorf("only %d of %d strips reached their exact length", exact, len(res.Layout.RoutedStrips()))
	}
	if m.MaxLengthError > geom.FromMicrons(30) {
		t.Errorf("max length error %.1f µm too large", geom.Microns(m.MaxLengthError))
	}
}

func TestScoreOrdersLayouts(t *testing.T) {
	c := cascadeCircuit()
	good, err := Construct(c)
	if err != nil {
		t.Fatal(err)
	}
	// A layout with everything unplaced scores far worse.
	bad := layout.New(c)
	if Score(bad) <= Score(good) {
		t.Error("empty layout should score worse than the constructed one")
	}
}
