package netlist

import (
	"testing"

	"rficlayout/internal/geom"
)

func sampleTransistor() *Device {
	d := NewDevice("M1", Transistor, geom.FromMicrons(30), geom.FromMicrons(40))
	d.AddPin("gate", geom.PtMicrons(-15, 0), 0)
	d.AddPin("drain", geom.PtMicrons(15, 10), 0)
	d.AddPin("source", geom.PtMicrons(15, -10), 0)
	return d
}

func TestDeviceTypeRoundTrip(t *testing.T) {
	for _, dt := range []DeviceType{Transistor, Capacitor, Inductor, Resistor, Pad, Generic} {
		parsed, err := ParseDeviceType(dt.String())
		if err != nil || parsed != dt {
			t.Errorf("round trip of %v failed: %v, %v", dt, parsed, err)
		}
	}
	if _, err := ParseDeviceType("flux-capacitor"); err == nil {
		t.Error("unknown type accepted")
	}
	if DeviceType(99).String() == "" {
		t.Error("empty string for out-of-range type")
	}
}

func TestDevicePins(t *testing.T) {
	d := sampleTransistor()
	p, err := d.Pin("drain")
	if err != nil || !p.Offset.Eq(geom.PtMicrons(15, 10)) {
		t.Errorf("Pin(drain) = %+v, %v", p, err)
	}
	if _, err := d.Pin("bulk"); err == nil {
		t.Error("missing pin not reported")
	}
	if !d.HasPin("gate") || d.HasPin("bulk") {
		t.Error("HasPin wrong")
	}
}

func TestDevicePinOffsetWithRotation(t *testing.T) {
	d := sampleTransistor()
	off, err := d.PinOffset("drain", geom.R90)
	if err != nil {
		t.Fatal(err)
	}
	// (15, 10) rotated by 90° CCW becomes (-10, 15).
	if !off.Eq(geom.PtMicrons(-10, 15)) {
		t.Errorf("rotated offset = %v", off)
	}
	if _, err := d.PinOffset("missing", geom.R0); err == nil {
		t.Error("missing pin accepted")
	}
}

func TestDeviceDimensionsAndBody(t *testing.T) {
	d := sampleTransistor()
	w, h := d.Dimensions(geom.R0)
	if w != geom.FromMicrons(30) || h != geom.FromMicrons(40) {
		t.Errorf("R0 dims = %d×%d", w, h)
	}
	w, h = d.Dimensions(geom.R90)
	if w != geom.FromMicrons(40) || h != geom.FromMicrons(30) {
		t.Errorf("R90 dims = %d×%d", w, h)
	}
	body := d.BodyRect(geom.PtMicrons(100, 100), geom.R0)
	if body.Width() != geom.FromMicrons(30) || body.Height() != geom.FromMicrons(40) {
		t.Errorf("body = %v", body)
	}
	if !body.Eq(geom.RectFromCenter(geom.PtMicrons(100, 100), body.Width(), body.Height())) {
		t.Errorf("body %v is not centred on (100, 100) µm", body)
	}
}

func TestNewPad(t *testing.T) {
	p := NewPad("P1", geom.FromMicrons(60))
	if !p.IsPad() {
		t.Error("pad not classified as pad")
	}
	if err := p.Validate(); err != nil {
		t.Errorf("pad invalid: %v", err)
	}
	pin, err := p.Pin("p")
	if err != nil || !pin.Offset.Eq(geom.Pt(0, 0)) {
		t.Error("pad pin missing or off-centre")
	}
	if sampleTransistor().IsPad() {
		t.Error("transistor classified as pad")
	}
}

func TestDeviceValidate(t *testing.T) {
	ok := sampleTransistor()
	if err := ok.Validate(); err != nil {
		t.Errorf("valid device rejected: %v", err)
	}

	bad := NewDevice("", Transistor, 10, 10).AddPin("p", geom.Pt(0, 0), 0)
	if err := bad.Validate(); err == nil {
		t.Error("empty name accepted")
	}
	bad = NewDevice("M", Transistor, 0, 10).AddPin("p", geom.Pt(0, 0), 0)
	if err := bad.Validate(); err == nil {
		t.Error("zero width accepted")
	}
	bad = NewDevice("M", Transistor, 10, 10)
	if err := bad.Validate(); err == nil {
		t.Error("device without pins accepted")
	}
	bad = NewDevice("M", Transistor, 10, 10).AddPin("p", geom.Pt(0, 0), 0).AddPin("p", geom.Pt(1, 1), 0)
	if err := bad.Validate(); err == nil {
		t.Error("duplicate pin accepted")
	}
	bad = NewDevice("M", Transistor, 10, 10).AddPin("", geom.Pt(0, 0), 0)
	if err := bad.Validate(); err == nil {
		t.Error("empty pin name accepted")
	}
	bad = NewDevice("M", Transistor, 10, 10).AddPin("p", geom.Pt(50, 0), 0)
	if err := bad.Validate(); err == nil {
		t.Error("pin outside the body accepted")
	}
}

func TestMicrostripValidate(t *testing.T) {
	good := &Microstrip{
		Name:         "TL1",
		From:         Terminal{"M1", "drain"},
		To:           Terminal{"M2", "gate"},
		TargetLength: geom.FromMicrons(120),
	}
	if err := good.Validate(); err != nil {
		t.Errorf("valid microstrip rejected: %v", err)
	}
	cases := []Microstrip{
		{Name: "", From: good.From, To: good.To, TargetLength: good.TargetLength},
		{Name: "a", From: good.From, To: good.To, TargetLength: 0},
		{Name: "a", From: good.From, To: good.To, TargetLength: good.TargetLength, Width: -1},
		{Name: "a", From: Terminal{}, To: good.To, TargetLength: good.TargetLength},
		{Name: "a", From: good.From, To: good.From, TargetLength: good.TargetLength},
	}
	for i, ms := range cases {
		if err := ms.Validate(); err == nil {
			t.Errorf("case %d: invalid microstrip accepted", i)
		}
	}
	if good.From.String() != "M1.drain" {
		t.Errorf("terminal string = %q", good.From.String())
	}
}
