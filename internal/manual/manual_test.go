package manual

import (
	"testing"

	"rficlayout/internal/circuits"
	"rficlayout/internal/geom"
	"rficlayout/internal/netlist"
	"rficlayout/internal/tech"
)

func TestMatchWithMeanderAddsLengthAndBends(t *testing.T) {
	// A 200 µm straight leg that must become 300 µm equivalent.
	path := geom.MustPolyline(geom.FromMicrons(10), geom.PtMicrons(0, 0), geom.PtMicrons(200, 0))
	delta := geom.FromMicrons(-4)
	pts := matchWithMeander(path, geom.FromMicrons(300), delta, geom.FromMicrons(25), 12)
	pl := geom.Polyline{Points: pts, Width: path.Width}
	eq := pl.Length() + geom.Coord(pl.Bends())*delta
	if diff := geom.AbsCoord(eq - geom.FromMicrons(300)); diff > geom.FromMicrons(8) {
		t.Errorf("equivalent length %.1f µm, want ≈300 (diff %.1f)", geom.Microns(eq), geom.Microns(diff))
	}
	if pl.Bends() < 4 {
		t.Errorf("meander has only %d bends; a hand meander has at least one full tooth", pl.Bends())
	}
	if !pts[0].Eq(path.Points[0]) || !pts[len(pts)-1].Eq(path.Points[len(path.Points)-1]) {
		t.Error("meander moved the endpoints")
	}
}

func TestMatchWithMeanderLeavesLongRoutesAlone(t *testing.T) {
	path := geom.MustPolyline(geom.FromMicrons(10), geom.PtMicrons(0, 0), geom.PtMicrons(200, 0))
	pts := matchWithMeander(path, geom.FromMicrons(150), geom.FromMicrons(-4), geom.FromMicrons(25), 12)
	if len(pts) != 2 {
		t.Errorf("already-too-long route was modified: %v", pts)
	}
}

func TestGenerateSmallCircuit(t *testing.T) {
	c := netlist.NewCircuit("mini", tech.Default90nm(), geom.FromMicrons(400), geom.FromMicrons(300))
	m1 := netlist.NewDevice("M1", netlist.Transistor, geom.FromMicrons(40), geom.FromMicrons(30))
	m1.AddPin("in", geom.PtMicrons(-20, 0), 0)
	m1.AddPin("out", geom.PtMicrons(20, 0), 0)
	c.AddDevice(m1)
	c.AddDevice(netlist.NewPad("PIN", c.Tech.PadSize))
	c.AddDevice(netlist.NewPad("POUT", c.Tech.PadSize))
	c.Connect("TL1", "PIN", "p", "M1", "in", geom.FromMicrons(180))
	c.Connect("TL2", "M1", "out", "POUT", "p", geom.FromMicrons(200))

	l, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Complete() {
		t.Fatal("manual layout incomplete")
	}
	m := l.Metrics()
	if m.TotalBends == 0 {
		t.Error("manual meandering should introduce bends")
	}
	if m.MaxLengthError > geom.FromMicrons(25) {
		t.Errorf("manual length error %.1f µm too large", geom.Microns(m.MaxLengthError))
	}
}

func TestGenerateBenchmarkCircuitHasManyBends(t *testing.T) {
	spec, err := circuits.BySpecName("buffer60")
	if err != nil {
		t.Fatal(err)
	}
	c := circuits.Build(spec)
	l, err := Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Complete() {
		t.Fatal("manual layout incomplete")
	}
	m := l.Metrics()
	// The paper's manual layouts have dozens of bends in total; the emulated
	// designer should land in the same order of magnitude.
	if m.TotalBends < 10 {
		t.Errorf("manual baseline produced only %d bends, expected a bend-heavy layout", m.TotalBends)
	}
}
