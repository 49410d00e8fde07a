package ilpmodel

import (
	"testing"
	"time"

	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/milp"
	"rficlayout/internal/netlist"
	"rficlayout/internal/tech"
)

// obstacleCircuit places a blocking capacitor directly between two connected
// devices, so the straight route is not available, and routes the strip
// around it over 4 chain points.
func obstacleCircuit() (*netlist.Circuit, *layout.Layout) {
	c := netlist.NewCircuit("obstacle", tech.Default90nm(), geom.FromMicrons(300), geom.FromMicrons(220))
	a := netlist.NewDevice("A", netlist.Capacitor, geom.FromMicrons(40), geom.FromMicrons(40))
	a.AddPin("p", geom.PtMicrons(20, 0), 0)
	c.AddDevice(a)
	b := netlist.NewDevice("B", netlist.Capacitor, geom.FromMicrons(40), geom.FromMicrons(40))
	b.AddPin("p", geom.PtMicrons(-20, 0), 0)
	c.AddDevice(b)
	blocker := netlist.NewDevice("X", netlist.Capacitor, geom.FromMicrons(50), geom.FromMicrons(60))
	blocker.AddPin("p", geom.Pt(0, 0), 0)
	c.AddDevice(blocker)
	// Target long enough to go around the blocker: direct pin distance is
	// 180 µm; the detour around a 60 µm tall blocker (plus spacing) needs
	// roughly 180 + 2·(30 + 10 + 5) ≈ 270 µm. Use 280 µm.
	c.Connect("TL", "A", "p", "B", "p", geom.FromMicrons(280))

	l := layout.New(c)
	_ = l.Place("A", geom.PtMicrons(40, 110), geom.R0)
	_ = l.Place("B", geom.PtMicrons(260, 110), geom.R0)
	_ = l.Place("X", geom.PtMicrons(150, 110), geom.R0)
	_ = l.Route("TL",
		geom.PtMicrons(60, 110), geom.PtMicrons(60, 180),
		geom.PtMicrons(240, 180), geom.PtMicrons(240, 110))
	return c, l
}

func TestRouteAvoidsFixedObstacle(t *testing.T) {
	c, fixed := obstacleCircuit()
	m, err := Build(c, Config{
		FreeStrips:         []string{"TL"},
		Fixed:              fixed,
		DefaultChainPoints: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	lay, res, err := m.SolveAndExtractCtx(deadline(t, 60*time.Second), milp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.HasSolution() {
		t.Fatalf("status = %v after %d nodes", res.Status, res.Nodes)
	}
	vs := lay.Check(layout.CheckOptions{PinTolerance: 2})
	if n := layout.CountViolations(vs, layout.SpacingViolation); n != 0 {
		t.Errorf("spacing violations: %v", vs)
	}
	if n := layout.CountViolations(vs, layout.LengthMismatch); n != 0 {
		t.Errorf("length mismatches: %v", vs)
	}
	rs := lay.Routed("TL")
	if rs.Bends() < 2 {
		t.Errorf("bends = %d; the detour around the obstacle needs at least 2", rs.Bends())
	}
}

func TestPairRadiusPrunesConstraints(t *testing.T) {
	c, fixed := obstacleCircuit()
	// Add a fixed device in the far corner: with a small pair radius the far
	// device's non-overlap constraints are dropped while everything near the
	// strip is kept.
	far := netlist.NewDevice("FAR", netlist.Capacitor, geom.FromMicrons(30), geom.FromMicrons(30))
	far.AddPin("p", geom.Pt(0, 0), 0)
	c.AddDevice(far)
	if err := fixed.Place("FAR", geom.PtMicrons(280, 20), geom.R0); err != nil {
		t.Fatal(err)
	}
	full, err := Build(c, Config{
		FreeStrips:         []string{"TL"},
		Fixed:              fixed,
		DefaultChainPoints: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Build(c, Config{
		FreeStrips:         []string{"TL"},
		Fixed:              fixed,
		DefaultChainPoints: 4,
		PairRadius:         geom.FromMicrons(1), // prune almost everything
	})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.overlapPairs >= full.overlapPairs {
		t.Errorf("pruned pairs %d not fewer than full pairs %d", pruned.overlapPairs, full.overlapPairs)
	}
}

func TestConfinementWindowsRestrictCoordinates(t *testing.T) {
	c, fixed := obstacleCircuit()
	// The Global form keeps the route's topology and its order against the
	// blocker; confinement keeps every chain point near the route.
	if err := fixed.Route("TL",
		geom.PtMicrons(60, 110), geom.PtMicrons(60, 170),
		geom.PtMicrons(240, 170), geom.PtMicrons(240, 110)); err != nil {
		t.Fatal(err)
	}
	m, err := Build(c, Config{
		FreeStrips:         []string{"TL"},
		Fixed:              fixed,
		DefaultChainPoints: 4,
		Confinement:        geom.FromMicrons(30),
		Global:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	lay, res, err := m.SolveAndExtractCtx(deadline(t, 30*time.Second), milp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.HasSolution() {
		t.Fatalf("status = %v", res.Status)
	}
	rs := lay.Routed("TL")
	warm := fixed.Routed("TL")
	for i, p := range rs.Path.Points {
		if p.ManhattanTo(warm.Path.Points[i]) > geom.FromMicrons(61) {
			t.Errorf("chain point %d moved %v → %v, beyond the confinement window", i, warm.Path.Points[i], p)
		}
	}
	if e := geom.AbsCoord(rs.LengthError(c.Tech.BendCompensation)); e > 10 {
		t.Errorf("length error = %d nm", e)
	}
}

func TestGlobalRejectsRoutePointMismatch(t *testing.T) {
	// The Global form pins each free strip's directions to its route in
	// Fixed, so the route must have exactly the strip's chain points: the
	// 4-point route of TL cannot seed 5 chain points.
	c, fixed := obstacleCircuit()
	_, err := Build(c, Config{
		FreeStrips:         []string{"TL"},
		Fixed:              fixed,
		DefaultChainPoints: 5,
		Global:             true,
	})
	if err == nil {
		t.Error("the Global form accepted a 4-point route for 5 chain points")
	}
	if _, err := Build(c, Config{FreeStrips: []string{"TL"}, Fixed: fixed, DefaultChainPoints: 4, Global: true}); err != nil {
		t.Errorf("the Global form rejected a matching route: %v", err)
	}
}
