package ilpmodel

import (
	"context"
	"testing"
	"time"

	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/milp"
	"rficlayout/internal/netlist"
	"rficlayout/internal/tech"
)

// twoBlockCircuit builds a minimal instance: two capacitor blocks connected
// by one microstrip inside a 300×200 µm area.
func twoBlockCircuit(targetUm float64) *netlist.Circuit {
	c := netlist.NewCircuit("pair", tech.Default90nm(), geom.FromMicrons(300), geom.FromMicrons(200))
	a := netlist.NewDevice("A", netlist.Capacitor, geom.FromMicrons(40), geom.FromMicrons(40))
	a.AddPin("p", geom.PtMicrons(20, 0), 0)
	c.AddDevice(a)
	b := netlist.NewDevice("B", netlist.Capacitor, geom.FromMicrons(40), geom.FromMicrons(40))
	b.AddPin("p", geom.PtMicrons(-20, 0), 0)
	c.AddDevice(b)
	c.Connect("TL", "A", "p", "B", "p", geom.FromMicrons(targetUm))
	return c
}

// fixedTwoBlockLayout places A and B at opposite ends of the area and routes
// TL straight between their pins over 3 chain points.
func fixedTwoBlockLayout(t *testing.T, c *netlist.Circuit) *layout.Layout {
	t.Helper()
	l := layout.New(c)
	if err := l.Place("A", geom.PtMicrons(40, 100), geom.R0); err != nil {
		t.Fatal(err)
	}
	if err := l.Place("B", geom.PtMicrons(260, 100), geom.R0); err != nil {
		t.Fatal(err)
	}
	if err := l.Route("TL", geom.PtMicrons(60, 100), geom.PtMicrons(150, 100), geom.PtMicrons(240, 100)); err != nil {
		t.Fatal(err)
	}
	return l
}

// deadline returns a context that expires after limit and is released when
// the test ends.
func deadline(t *testing.T, limit time.Duration) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	t.Cleanup(cancel)
	return ctx
}

func TestStraightStripExactLength(t *testing.T) {
	// Pins are 180 µm apart; the target is exactly 180 µm, so a straight
	// zero-bend route is optimal and exact.
	c := twoBlockCircuit(180)
	fixed := fixedTwoBlockLayout(t, c)
	m, err := Build(c, Config{
		FreeStrips:         []string{"TL"},
		Fixed:              fixed,
		DefaultChainPoints: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	lay, res, err := m.SolveAndExtractCtx(deadline(t, 20*time.Second), milp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.HasSolution() {
		t.Fatalf("status = %v", res.Status)
	}
	if lay == nil || !lay.Complete() {
		t.Fatal("incomplete layout extracted")
	}
	rs := lay.Routed("TL")
	if rs.Bends() != 0 {
		t.Errorf("bends = %d, want 0", rs.Bends())
	}
	if vs := lay.Check(layout.CheckOptions{PinTolerance: 2}); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
	if e := geom.AbsCoord(rs.LengthError(c.Tech.BendCompensation)); e > 10 {
		t.Errorf("length error = %d nm", e)
	}
}

func TestLongerTargetForcesDetour(t *testing.T) {
	// Pins are 180 µm apart but the target is 240 µm: the strip must detour,
	// which needs at least two bends. The equivalent length must match the
	// target exactly, including the per-bend compensation.
	c := twoBlockCircuit(240)
	fixed := fixedTwoBlockLayout(t, c)
	m, err := Build(c, Config{
		FreeStrips:         []string{"TL"},
		Fixed:              fixed,
		DefaultChainPoints: 4,
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
	if rs.Bends() < 2 {
		t.Errorf("bends = %d, want >= 2 for a detour", rs.Bends())
	}
	if vs := lay.Check(layout.CheckOptions{PinTolerance: 2}); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
}

func TestFreeDeviceKeepsFixedOrientation(t *testing.T) {
	// B is rotated in Fixed and free without a confinement window: the model
	// moves it but never rotates it, so the extracted layout keeps R180.
	c := twoBlockCircuit(180)
	fixed := fixedTwoBlockLayout(t, c)
	if err := fixed.Place("B", geom.PtMicrons(260, 100), geom.R180); err != nil {
		t.Fatal(err)
	}
	m, err := Build(c, Config{
		FreeStrips:         []string{"TL"},
		FreeDevices:        []string{"B"},
		Fixed:              fixed,
		DefaultChainPoints: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	lay, res, err := m.SolveAndExtractCtx(deadline(t, 20*time.Second), milp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.HasSolution() {
		t.Fatalf("status = %v", res.Status)
	}
	if got := lay.Placed("B").Orient; got != geom.R180 {
		t.Errorf("B orientation = %v, want %v", got, geom.R180)
	}
	if vs := lay.Check(layout.CheckOptions{PinTolerance: 2}); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
}

func TestInfeasibleTooShortTarget(t *testing.T) {
	// The pins are 180 µm apart but the target is only 100 µm: no planar
	// rectilinear route can be shorter than the Manhattan pin distance, so
	// the model must be infeasible.
	c := twoBlockCircuit(100)
	fixed := fixedTwoBlockLayout(t, c)
	m, err := Build(c, Config{
		FreeStrips:         []string{"TL"},
		Fixed:              fixed,
		DefaultChainPoints: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.MILP.SolveCtx(deadline(t, 20*time.Second), milp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != milp.StatusInfeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestSoftLengthReportsMismatch(t *testing.T) {
	// Same impossible 100 µm target, but the Global form's soft length
	// keeps the model feasible and reports the 80 µm shortfall (pins are
	// 180 µm apart).
	c := twoBlockCircuit(100)
	fixed := fixedTwoBlockLayout(t, c)
	m, err := Build(c, Config{
		FreeStrips:         []string{"TL"},
		Fixed:              fixed,
		DefaultChainPoints: 3,
		Global:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	lay, res, err := m.SolveAndExtractCtx(deadline(t, 20*time.Second), milp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.HasSolution() {
		t.Fatalf("status = %v", res.Status)
	}
	// The straight route is 180 µm long, 80 µm over the target.
	mismatch := geom.Microns(lay.Routed("TL").LengthError(c.Tech.BendCompensation))
	if mismatch < 75 || mismatch > 85 {
		t.Errorf("mismatch = %g µm, want ≈ 80", mismatch)
	}
}

func TestFixTopologyKeepsDirectionsAndMatchesLength(t *testing.T) {
	// The Global form fixes the topology of the route in Fixed (up, right,
	// down over 4 points); the solver may only slide coordinates, and the
	// soft length reaches the target by moving the horizontal leg. A and B
	// stay fixed.
	c := netlist.NewCircuit("ltopo", tech.Default90nm(), geom.FromMicrons(300), geom.FromMicrons(200))
	a := netlist.NewDevice("A", netlist.Capacitor, geom.FromMicrons(40), geom.FromMicrons(40))
	a.AddPin("p", geom.PtMicrons(0, 20), 0)
	c.AddDevice(a)
	b := netlist.NewDevice("B", netlist.Capacitor, geom.FromMicrons(40), geom.FromMicrons(40))
	b.AddPin("p", geom.PtMicrons(0, 20), 0)
	c.AddDevice(b)
	// Pin distance horizontally 200 µm; target 280 µm → detour of 80 µm
	// vertically split over the up and down legs (40 each), minus bend
	// compensation 2·(−4) = −8 → geometric must be 288.
	c.Connect("TL", "A", "p", "B", "p", geom.FromMicrons(280))

	fixed := layout.New(c)
	if err := fixed.Place("A", geom.PtMicrons(40, 80), geom.R0); err != nil {
		t.Fatal(err)
	}
	if err := fixed.Place("B", geom.PtMicrons(240, 80), geom.R0); err != nil {
		t.Fatal(err)
	}
	// Warm route with the desired topology (up, right, down), not yet the
	// right length.
	if err := fixed.Route("TL",
		geom.PtMicrons(40, 100), geom.PtMicrons(40, 120),
		geom.PtMicrons(240, 120), geom.PtMicrons(240, 100)); err != nil {
		t.Fatal(err)
	}

	m, err := Build(c, Config{
		FreeStrips:         []string{"TL"},
		Fixed:              fixed,
		DefaultChainPoints: 4,
		Global:             true,
	})
	if err != nil {
		t.Fatal(err)
	}
	lay, res, err := m.SolveAndExtractCtx(deadline(t, 20*time.Second), milp.SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Status.HasSolution() {
		t.Fatalf("status = %v", res.Status)
	}
	rs := lay.Routed("TL")
	if rs.Bends() != 2 {
		t.Errorf("bends = %d, want 2", rs.Bends())
	}
	delta := c.Tech.BendCompensation
	if e := geom.AbsCoord(rs.LengthError(delta)); e > 10 {
		t.Errorf("length error = %d nm", e)
	}
	if vs := lay.Check(layout.CheckOptions{PinTolerance: 2}); len(vs) != 0 {
		t.Errorf("violations: %v", vs)
	}
}

func TestConfigValidation(t *testing.T) {
	c := twoBlockCircuit(180)
	fixed := fixedTwoBlockLayout(t, c)
	if _, err := Build(c, Config{FreeStrips: []string{"TL"}}); err == nil {
		t.Error("missing Fixed layout accepted")
	}
	if _, err := Build(c, Config{FreeStrips: []string{"TL"}, Fixed: fixedTwoBlockLayout(t, twoBlockCircuit(180))}); err == nil {
		t.Error("Fixed layout of another circuit accepted")
	}
	if _, err := Build(c, Config{FreeDevices: []string{"A", "ZZ"}, Fixed: fixed}); err == nil {
		t.Error("unknown free device accepted")
	}
	if _, err := Build(c, Config{FreeStrips: []string{"ZZ"}, Fixed: fixed}); err == nil {
		t.Error("unknown free strip accepted")
	}
	// Fixed devices without placements must be rejected at build time.
	if _, err := Build(c, Config{FreeStrips: []string{"TL"}, Fixed: layout.New(c)}); err == nil {
		t.Error("missing fixed placement accepted")
	}
	// Free objects need their geometry in Fixed too, in either form.
	unrouted := layout.New(c)
	onlyB := layout.New(c)
	for _, l := range []*layout.Layout{unrouted, onlyB} {
		if err := l.Place("B", geom.PtMicrons(260, 100), geom.R0); err != nil {
			t.Fatal(err)
		}
	}
	if err := unrouted.Place("A", geom.PtMicrons(40, 100), geom.R0); err != nil {
		t.Fatal(err)
	}
	if err := onlyB.Route("TL", geom.PtMicrons(60, 100), geom.PtMicrons(240, 100)); err != nil {
		t.Fatal(err)
	}
	for _, global := range []bool{false, true} {
		if _, err := Build(c, Config{FreeStrips: []string{"TL"}, Fixed: unrouted, Global: global}); err == nil {
			t.Errorf("Global=%v: free strip without a Fixed route accepted", global)
		}
		if _, err := Build(c, Config{FreeDevices: []string{"A"}, Fixed: onlyB, Global: global}); err == nil {
			t.Errorf("Global=%v: free device without a Fixed placement accepted", global)
		}
	}
	// Pads stay where the Fixed layout has them.
	c.AddDevice(netlist.NewPad("P", c.Tech.PadSize))
	c.Connect("IN", "P", "p", "A", "p", geom.FromMicrons(40))
	withPad := fixedTwoBlockLayout(t, c)
	if err := withPad.Place("P", geom.PtMicrons(0, 100), geom.R0); err != nil {
		t.Fatal(err)
	}
	if err := withPad.Route("IN", geom.PtMicrons(0, 100), geom.PtMicrons(60, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(c, Config{FreeStrips: []string{"TL", "IN"}, Fixed: withPad}); err != nil {
		t.Errorf("strips at a fixed pad rejected: %v", err)
	}
	if _, err := Build(c, Config{FreeDevices: []string{"P"}, FreeStrips: []string{"TL", "IN"}, Fixed: withPad}); err == nil {
		t.Error("free pad accepted")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := twoBlockCircuit(180)
	cfg := Config{Fixed: fixedTwoBlockLayout(t, c)}
	if cfg.chainPoints("TL") != 3 {
		t.Errorf("chain points of a routed strip = %d, want its 3 route points", cfg.chainPoints("TL"))
	}
	cfg.DefaultChainPoints = 5
	if cfg.chainPoints("TL") != 5 {
		t.Error("DefaultChainPoints not honoured")
	}
}

func TestWarmDirections(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(10, 0), geom.Pt(10, 20),
	}
	dirs := warmDirections(pts)
	want := []geom.Direction{geom.Right, geom.Right, geom.Up}
	for i := range want {
		if dirs[i] != want[i] {
			t.Errorf("dir %d = %v, want %v", i, dirs[i], want[i])
		}
	}
	// All-zero-length path falls back to a default without panicking.
	dirs = warmDirections([]geom.Point{geom.Pt(5, 5), geom.Pt(5, 5)})
	if len(dirs) != 1 {
		t.Errorf("dirs = %v", dirs)
	}
}

func TestModelStats(t *testing.T) {
	c := twoBlockCircuit(180)
	fixed := fixedTwoBlockLayout(t, c)
	m, err := Build(c, Config{FreeStrips: []string{"TL"}, Fixed: fixed, DefaultChainPoints: 3})
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats() == "" {
		t.Error("empty stats")
	}
	if m.MILP.NumVars() == 0 || m.MILP.NumConstraints() == 0 {
		t.Error("model appears empty")
	}
}
