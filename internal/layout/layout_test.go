package layout

import (
	"strings"
	"testing"

	"rficlayout/internal/geom"
	"rficlayout/internal/netlist"
	"rficlayout/internal/tech"
)

// testCircuit builds a pad → transistor → pad chain in a 400×300 µm area.
func testCircuit() *netlist.Circuit {
	c := netlist.NewCircuit("chain", tech.Default90nm(), geom.FromMicrons(400), geom.FromMicrons(300))
	m1 := netlist.NewDevice("M1", netlist.Transistor, geom.FromMicrons(40), geom.FromMicrons(30))
	m1.AddPin("gate", geom.PtMicrons(-20, 0), 0)
	m1.AddPin("drain", geom.PtMicrons(20, 0), 0)
	c.AddDevice(m1)
	c.AddDevice(netlist.NewPad("PIN", c.Tech.PadSize))
	c.AddDevice(netlist.NewPad("POUT", c.Tech.PadSize))
	c.Connect("TLIN", "PIN", "p", "M1", "gate", geom.FromMicrons(150))
	c.Connect("TLOUT", "M1", "drain", "POUT", "p", geom.FromMicrons(196))
	return c
}

// completeLayout builds a correct layout for testCircuit:
//   - PIN pad at the left boundary (0, 150), POUT at the right boundary,
//   - M1 centred so its pins line up with straight or L-shaped routes whose
//     equivalent lengths match the targets exactly.
func completeLayout(t *testing.T) *Layout {
	t.Helper()
	c := testCircuit()
	l := New(c)
	// PIN pad on the left boundary at y=150.
	if err := l.Place("PIN", geom.PtMicrons(0, 150), geom.R0); err != nil {
		t.Fatal(err)
	}
	// M1 centre: gate pin at (-20,0) offset → pin lands at x=150+(-20)=130.
	// TLIN: from PIN.p (0,150) straight to gate (150-20=130? we want length 150).
	// Place M1 centre at (170, 150): gate at (150, 150) → straight length 150. ✓
	if err := l.Place("M1", geom.PtMicrons(170, 150), geom.R0); err != nil {
		t.Fatal(err)
	}
	// POUT on the right boundary (400, 250).
	if err := l.Place("POUT", geom.PtMicrons(400, 250), geom.R0); err != nil {
		t.Fatal(err)
	}
	if err := l.Route("TLIN", geom.PtMicrons(0, 150), geom.PtMicrons(150, 150)); err != nil {
		t.Fatal(err)
	}
	// TLOUT: drain at (190, 150) to POUT at (400, 250): L-shape with one bend.
	// Geometric length = (400-190) + (250-150) = 210 + 100 = 310... too long.
	// Target is 196 µm; choose a different drain-side path: the target was
	// picked to match this geometry: geometric 310 with bends... we instead
	// set target accordingly in testCircuit: 196? Adjust: use a two-bend path
	// is unnecessary — recompute: with δ = −4 µm and one bend, equivalent =
	// geometric − 4. To hit 196 the geometric length must be 200. Route the
	// strip off the direct path: not possible shorter than 310. So instead
	// the test uses target 306 for TLOUT.
	if err := l.Route("TLOUT", geom.PtMicrons(190, 150), geom.PtMicrons(400, 150), geom.PtMicrons(400, 250)); err != nil {
		t.Fatal(err)
	}
	return l
}

// fixTLOUTTarget adjusts the TLOUT target so the completeLayout route is
// exact: geometric 310 µm with 1 bend and δ=−4 µm → equivalent 306 µm.
func fixTLOUTTarget(c *netlist.Circuit) {
	ms, _ := c.Microstrip("TLOUT")
	ms.TargetLength = geom.FromMicrons(306)
}

func TestPlaceAndRouteAccessors(t *testing.T) {
	l := completeLayout(t)
	fixTLOUTTarget(l.Circuit)
	if !l.Complete() {
		t.Error("layout should be complete")
	}
	if l.Placed("M1") == nil || l.Routed("TLIN") == nil {
		t.Error("lookups failed")
	}
	if l.Placed("nope") != nil || l.Routed("nope") != nil {
		t.Error("phantom objects found")
	}
	if err := l.Place("missing", geom.Pt(0, 0), geom.R0); err == nil {
		t.Error("placing unknown device accepted")
	}
	if err := l.Route("missing", geom.Pt(0, 0), geom.Pt(1, 0)); err == nil {
		t.Error("routing unknown strip accepted")
	}
	if err := l.Route("TLIN", geom.Pt(0, 0)); err == nil {
		t.Error("single-point route accepted")
	}
	if err := l.Route("TLIN", geom.Pt(0, 0), geom.Pt(5, 5)); err == nil {
		t.Error("diagonal route accepted")
	}
	devs := l.PlacedDevices()
	if len(devs) != 3 || devs[0].Device.Name != "M1" {
		t.Errorf("PlacedDevices = %v", devs)
	}
	strips := l.RoutedStrips()
	if len(strips) != 2 || strips[0].Strip.Name != "TLIN" {
		t.Errorf("RoutedStrips order wrong")
	}
}

func TestPinPositionAndRotation(t *testing.T) {
	l := completeLayout(t)
	pos, err := l.PinPosition(netlist.Terminal{Device: "M1", Pin: "gate"})
	if err != nil || !pos.Eq(geom.PtMicrons(150, 150)) {
		t.Errorf("gate position = %v, %v", pos, err)
	}
	// Rotate M1 by 180°: gate moves to the other side.
	if err := l.Place("M1", geom.PtMicrons(170, 150), geom.R180); err != nil {
		t.Fatal(err)
	}
	pos, _ = l.PinPosition(netlist.Terminal{Device: "M1", Pin: "gate"})
	if !pos.Eq(geom.PtMicrons(190, 150)) {
		t.Errorf("rotated gate position = %v", pos)
	}
	if _, err := l.PinPosition(netlist.Terminal{Device: "POUT", Pin: "zz"}); err == nil {
		t.Error("missing pin accepted")
	}
	l2 := New(l.Circuit)
	if _, err := l2.PinPosition(netlist.Terminal{Device: "M1", Pin: "gate"}); err == nil {
		t.Error("pin position of unplaced device accepted")
	}
}

func TestStripLengthAndBends(t *testing.T) {
	l := completeLayout(t)
	delta := l.Circuit.Tech.BendCompensation
	in := l.Routed("TLIN")
	if in.GeometricLength() != geom.FromMicrons(150) || in.Bends() != 0 {
		t.Errorf("TLIN geometric %d bends %d", in.GeometricLength(), in.Bends())
	}
	if in.EquivalentLength(delta) != geom.FromMicrons(150) {
		t.Errorf("TLIN equivalent %d", in.EquivalentLength(delta))
	}
	if in.LengthError(delta) != 0 {
		t.Errorf("TLIN length error %d", in.LengthError(delta))
	}
	out := l.Routed("TLOUT")
	if out.GeometricLength() != geom.FromMicrons(310) || out.Bends() != 1 {
		t.Errorf("TLOUT geometric %d bends %d", out.GeometricLength(), out.Bends())
	}
	if out.EquivalentLength(delta) != geom.FromMicrons(306) {
		t.Errorf("TLOUT equivalent %d", out.EquivalentLength(delta))
	}
}

func TestMetrics(t *testing.T) {
	l := completeLayout(t)
	fixTLOUTTarget(l.Circuit)
	m := l.Metrics()
	if m.MaxBends != 1 || m.TotalBends != 1 {
		t.Errorf("bends = %d/%d", m.MaxBends, m.TotalBends)
	}
	if m.MaxLengthError != 0 || m.TotalLengthError != 0 {
		t.Errorf("length error = %d/%d", m.MaxLengthError, m.TotalLengthError)
	}
	if m.PlacedDevices != 3 || m.RoutedStrips != 2 {
		t.Errorf("counts = %d devices, %d strips", m.PlacedDevices, m.RoutedStrips)
	}
	if m.String() == "" {
		t.Error("empty metrics string")
	}
	if m.UsedBounds.Width() == 0 || m.UsedBounds.Height() == 0 {
		t.Error("used bounds empty for a complete layout")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	l := completeLayout(t)
	cp := l.Clone()
	if err := cp.Place("M1", geom.PtMicrons(50, 50), geom.R90); err != nil {
		t.Fatal(err)
	}
	if err := cp.Route("TLIN", geom.PtMicrons(0, 150), geom.PtMicrons(10, 150)); err != nil {
		t.Fatal(err)
	}
	if l.Placed("M1").Center.Eq(cp.Placed("M1").Center) {
		t.Error("clone shares device placement")
	}
	if l.Routed("TLIN").Path.End().Eq(cp.Routed("TLIN").Path.End()) {
		t.Error("clone shares routes")
	}
}

func TestUsedBoundsEmptyLayout(t *testing.T) {
	l := New(testCircuit())
	b := l.UsedBounds()
	if !b.Eq(geom.Rect{}) {
		t.Errorf("bounds of empty layout = %v", b)
	}
	if l.Complete() {
		t.Error("empty layout reported complete")
	}
}

func TestCheckCleanLayout(t *testing.T) {
	l := completeLayout(t)
	fixTLOUTTarget(l.Circuit)
	violations := l.Check(CheckOptions{})
	if len(violations) != 0 {
		for _, v := range violations {
			t.Errorf("unexpected violation: %v", v)
		}
	}
}

func TestCheckFindsMissingPieces(t *testing.T) {
	c := testCircuit()
	l := New(c)
	vs := l.Check(CheckOptions{})
	if CountViolations(vs, Unplaced) != 3 {
		t.Errorf("unplaced = %d, want 3", CountViolations(vs, Unplaced))
	}
	if CountViolations(vs, Unrouted) != 2 {
		t.Errorf("unrouted = %d, want 2", CountViolations(vs, Unrouted))
	}
}

func TestCheckPadBoundaryRule(t *testing.T) {
	l := completeLayout(t)
	fixTLOUTTarget(l.Circuit)
	// Move PIN into the interior; keep the route attached so only the pad
	// rule and the pin-mismatch rule fire.
	if err := l.Place("PIN", geom.PtMicrons(50, 150), geom.R0); err != nil {
		t.Fatal(err)
	}
	vs := l.Check(CheckOptions{})
	if CountViolations(vs, PadNotOnBoundary) != 1 {
		t.Errorf("expected a pad-boundary violation, got %v", vs)
	}
}

func TestCheckPinMismatch(t *testing.T) {
	l := completeLayout(t)
	fixTLOUTTarget(l.Circuit)
	// Shift the TLIN route so its end no longer touches the gate pin.
	if err := l.Route("TLIN", geom.PtMicrons(0, 150), geom.PtMicrons(140, 150)); err != nil {
		t.Fatal(err)
	}
	vs := l.Check(CheckOptions{})
	if CountViolations(vs, PinMismatch) == 0 {
		t.Errorf("expected a pin mismatch, got %v", vs)
	}
	// With a generous tolerance the mismatch disappears.
	vs = l.Check(CheckOptions{PinTolerance: geom.FromMicrons(20)})
	if CountViolations(vs, PinMismatch) != 0 {
		t.Errorf("tolerance not honoured: %v", vs)
	}
}

func TestCheckLengthMismatch(t *testing.T) {
	l := completeLayout(t)
	// TLOUT target left at 196 µm while the route realizes 306 µm.
	vs := l.Check(CheckOptions{})
	if CountViolations(vs, LengthMismatch) != 1 {
		t.Errorf("expected exactly one length mismatch, got %v", vs)
	}
}

func TestCheckOutOfArea(t *testing.T) {
	l := completeLayout(t)
	fixTLOUTTarget(l.Circuit)
	if err := l.Place("M1", geom.PtMicrons(395, 150), geom.R0); err != nil {
		t.Fatal(err)
	}
	vs := l.Check(CheckOptions{})
	if CountViolations(vs, OutOfArea) == 0 {
		t.Errorf("expected out-of-area violation, got %v", vs)
	}
}

func TestCheckSpacingViolation(t *testing.T) {
	c := testCircuit()
	l := New(c)
	// Two pads 5 µm apart violate the 10 µm (2t) spacing rule.
	if err := l.Place("PIN", geom.PtMicrons(0, 100), geom.R0); err != nil {
		t.Fatal(err)
	}
	if err := l.Place("POUT", geom.PtMicrons(0, 165), geom.R0); err != nil {
		t.Fatal(err)
	}
	vs := l.Check(CheckOptions{})
	if CountViolations(vs, SpacingViolation) != 1 {
		t.Errorf("expected one spacing violation, got %v", vs)
	}
	// At exactly 2t the rule is satisfied: pad edges at y=130 and y=160+? —
	// move POUT so the gap is exactly 10 µm (pads are 60 µm tall).
	if err := l.Place("POUT", geom.PtMicrons(0, 170), geom.R0); err != nil {
		t.Fatal(err)
	}
	vs = l.Check(CheckOptions{})
	if CountViolations(vs, SpacingViolation) != 0 {
		t.Errorf("gap of exactly 2t should satisfy the rule: %v", vs)
	}
}

func TestCheckCrossingViolation(t *testing.T) {
	c := testCircuit()
	// Add one more strip so two routes can cross far from any exemption.
	extra := netlist.NewDevice("M2", netlist.Transistor, geom.FromMicrons(40), geom.FromMicrons(30))
	extra.AddPin("gate", geom.PtMicrons(-20, 0), 0)
	extra.AddPin("drain", geom.PtMicrons(20, 0), 0)
	c.AddDevice(extra)
	c.Connect("TLX", "M2", "gate", "M2", "drain", geom.FromMicrons(500))

	l := New(c)
	if err := l.Place("PIN", geom.PtMicrons(0, 150), geom.R0); err != nil {
		t.Fatal(err)
	}
	if err := l.Place("M1", geom.PtMicrons(170, 150), geom.R0); err != nil {
		t.Fatal(err)
	}
	if err := l.Place("M2", geom.PtMicrons(100, 30), geom.R0); err != nil {
		t.Fatal(err)
	}
	// TLIN runs horizontally at y=150 from x=0 to x=150.
	if err := l.Route("TLIN", geom.PtMicrons(0, 150), geom.PtMicrons(150, 150)); err != nil {
		t.Fatal(err)
	}
	// TLX runs vertically through x=75 crossing TLIN.
	if err := l.Route("TLX", geom.PtMicrons(80, 30), geom.PtMicrons(75, 30), geom.PtMicrons(75, 250), geom.PtMicrons(120, 250), geom.PtMicrons(120, 30)); err != nil {
		t.Fatal(err)
	}
	vs := l.Check(CheckOptions{})
	if CountViolations(vs, CrossingViolation) == 0 {
		t.Errorf("expected crossing violation, got %v", vs)
	}
}

func TestSpacingExempt(t *testing.T) {
	c := testCircuit()
	// TLJ leaves M1.gate, where TLIN ends, and ends at POUT.p, where TLOUT
	// ends: two T-junctions. TLOUT leaves the other pin of M1.
	c.Connect("TLJ", "M1", "gate", "POUT", "p", geom.FromMicrons(100))
	dev := func(name string) Shape {
		d, err := c.Device(name)
		if err != nil {
			t.Fatal(err)
		}
		return Shape{Device: d, Seg: -1}
	}
	seg := func(strip string, i, n int) Shape {
		ms, err := c.Microstrip(strip)
		if err != nil {
			t.Fatal(err)
		}
		return Shape{Strip: ms, Seg: i, Segs: n}
	}
	cases := []struct {
		name string
		a, b Shape
		want bool
	}{
		{"adjacent segments of one strip", seg("TLIN", 1, 3), seg("TLIN", 2, 3), true},
		{"end segments at one pin", seg("TLIN", 2, 3), seg("TLJ", 0, 3), true},
		{"one-segment strips at one pin", seg("TLIN", 0, 1), seg("TLJ", 0, 1), true},
		{"strip against a device it ends on", seg("TLIN", 1, 3), dev("M1"), true},
		{"strip against the pad it starts on", seg("TLIN", 1, 3), dev("PIN"), true},
		{"non-adjacent segments of one strip", seg("TLIN", 0, 3), seg("TLIN", 2, 3), false},
		{"two devices", dev("M1"), dev("PIN"), false},
		{"strip against a device it does not end on", seg("TLIN", 1, 3), dev("POUT"), false},
		{"middle segment at a shared pin", seg("TLIN", 1, 3), seg("TLJ", 0, 3), false},
		{"end segments at two pins of one device", seg("TLIN", 2, 3), seg("TLOUT", 0, 3), false},
		{"last segments at one pad pin", seg("TLJ", 2, 3), seg("TLOUT", 1, 2), true},
		{"end segments at two different pins", seg("TLIN", 0, 3), seg("TLJ", 2, 3), false},
	}
	for _, tc := range cases {
		if got := SpacingExempt(tc.a, tc.b); got != tc.want {
			t.Errorf("%s: SpacingExempt = %v, want %v", tc.name, got, tc.want)
		}
		if got := SpacingExempt(tc.b, tc.a); got != tc.want {
			t.Errorf("%s, swapped: SpacingExempt = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestViolationStrings(t *testing.T) {
	kinds := []ViolationKind{Unplaced, Unrouted, OutOfArea, PadNotOnBoundary, SpacingViolation, CrossingViolation, LengthMismatch, PinMismatch, ViolationKind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Error("empty kind string")
		}
	}
	v := Violation{Kind: SpacingViolation, Subject: "a", Other: "b", Description: "too close"}
	if !strings.Contains(v.String(), "a") || !strings.Contains(v.String(), "b") {
		t.Errorf("violation string %q", v.String())
	}
	v.Other = ""
	if !strings.Contains(v.String(), "a") {
		t.Errorf("violation string %q", v.String())
	}
}
