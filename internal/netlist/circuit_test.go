package netlist

import (
	"os"
	"strings"
	"testing"

	"rficlayout/internal/geom"
	"rficlayout/internal/tech"
)

// smallCircuit builds a two-transistor, two-pad amplifier stub used across
// the package tests.
func smallCircuit() *Circuit {
	c := NewCircuit("amp", tech.Default90nm(), geom.FromMicrons(400), geom.FromMicrons(300))
	m1 := NewDevice("M1", Transistor, geom.FromMicrons(40), geom.FromMicrons(30))
	m1.AddPin("gate", geom.PtMicrons(-20, 0), 0)
	m1.AddPin("drain", geom.PtMicrons(20, 0), 0)
	c.AddDevice(m1)
	m2 := NewDevice("M2", Transistor, geom.FromMicrons(40), geom.FromMicrons(30))
	m2.AddPin("gate", geom.PtMicrons(-20, 0), 0)
	m2.AddPin("drain", geom.PtMicrons(20, 0), 0)
	c.AddDevice(m2)
	c.AddDevice(NewPad("PIN", c.Tech.PadSize))
	c.AddDevice(NewPad("POUT", c.Tech.PadSize))
	c.Connect("TLIN", "PIN", "p", "M1", "gate", geom.FromMicrons(150))
	c.Connect("TL12", "M1", "drain", "M2", "gate", geom.FromMicrons(180))
	c.Connect("TLOUT", "M2", "drain", "POUT", "p", geom.FromMicrons(140))
	return c
}

func TestCircuitAccessors(t *testing.T) {
	c := smallCircuit()
	if err := c.Validate(); err != nil {
		t.Fatalf("valid circuit rejected: %v", err)
	}
	if _, err := c.Device("M1"); err != nil {
		t.Error(err)
	}
	if _, err := c.Device("missing"); err == nil {
		t.Error("missing device accepted")
	}
	if _, err := c.Microstrip("TL12"); err != nil {
		t.Error(err)
	}
	if _, err := c.Microstrip("missing"); err == nil {
		t.Error("missing microstrip accepted")
	}
	if got := len(c.NonPadDevices()); got != 2 {
		t.Errorf("non-pad devices = %d", got)
	}
	if got := c.Area(); got.Width() != geom.FromMicrons(400) || got.Height() != geom.FromMicrons(300) {
		t.Errorf("area = %v", got)
	}
	if c.Stats() == "" {
		t.Error("empty stats")
	}
	strips := c.StripsAt("M1")
	if len(strips) != 2 || strips[0].Name != "TL12" || strips[1].Name != "TLIN" {
		t.Errorf("StripsAt(M1) = %v", strips)
	}
}

func TestCircuitValidateCatchesProblems(t *testing.T) {
	base := func() *Circuit { return smallCircuit() }

	c := base()
	c.Name = ""
	if err := c.Validate(); err == nil {
		t.Error("empty circuit name accepted")
	}

	c = base()
	c.AreaWidth = 0
	if err := c.Validate(); err == nil {
		t.Error("zero area accepted")
	}

	c = base()
	c.Tech.GroundDistance = 0
	if err := c.Validate(); err == nil {
		t.Error("invalid tech accepted")
	}

	c = base()
	c.AddDevice(NewPad("PIN", c.Tech.PadSize)) // duplicate name
	if err := c.Validate(); err == nil {
		t.Error("duplicate device accepted")
	}

	c = base()
	c.Connect("TLIN", "PIN", "p", "M2", "gate", geom.FromMicrons(10)) // duplicate strip name
	if err := c.Validate(); err == nil {
		t.Error("duplicate microstrip accepted")
	}

	c = base()
	c.Connect("TLX", "PIN", "p", "MX", "gate", geom.FromMicrons(10)) // unknown device
	if err := c.Validate(); err == nil {
		t.Error("dangling device reference accepted")
	}

	c = base()
	c.Connect("TLX", "PIN", "p", "M2", "bulk", geom.FromMicrons(10)) // unknown pin
	if err := c.Validate(); err == nil {
		t.Error("dangling pin reference accepted")
	}

	c = base()
	big := NewDevice("HUGE", Capacitor, geom.FromMicrons(500), geom.FromMicrons(100))
	big.AddPin("p", geom.Pt(0, 0), 0)
	c.AddDevice(big)
	if err := c.Validate(); err == nil {
		t.Error("device larger than the area accepted")
	}

	// A device that only fits rotated is allowed.
	c = base()
	tall := NewDevice("TALL", Capacitor, geom.FromMicrons(80), geom.FromMicrons(350))
	tall.AddPin("p", geom.Pt(0, 0), 0)
	c.AddDevice(tall)
	if err := c.Validate(); err != nil {
		t.Errorf("rotatable device rejected: %v", err)
	}
}

func TestCircuitValidateAreaCapacity(t *testing.T) {
	c := NewCircuit("tiny", tech.Default90nm(), geom.FromMicrons(100), geom.FromMicrons(100))
	for i := 0; i < 4; i++ {
		d := NewDevice(string(rune('A'+i)), Capacitor, geom.FromMicrons(60), geom.FromMicrons(60))
		d.AddPin("p", geom.Pt(0, 0), 0)
		c.AddDevice(d)
	}
	if err := c.Validate(); err == nil {
		t.Error("overfull circuit accepted")
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	c := smallCircuit()
	text := Format(c)
	parsed, err := ParseString(text)
	if err != nil {
		t.Fatalf("parse of formatted circuit failed: %v\n%s", err, text)
	}
	if parsed.Name != c.Name {
		t.Errorf("name = %q", parsed.Name)
	}
	if parsed.AreaWidth != c.AreaWidth || parsed.AreaHeight != c.AreaHeight {
		t.Error("area lost in round trip")
	}
	if len(parsed.Devices) != len(c.Devices) || len(parsed.Microstrips) != len(c.Microstrips) {
		t.Fatalf("content lost: %d devices, %d strips", len(parsed.Devices), len(parsed.Microstrips))
	}
	for _, ms := range c.Microstrips {
		p, err := parsed.Microstrip(ms.Name)
		if err != nil {
			t.Errorf("microstrip %s lost", ms.Name)
			continue
		}
		if p.TargetLength != ms.TargetLength || p.From != ms.From || p.To != ms.To {
			t.Errorf("microstrip %s changed: %+v vs %+v", ms.Name, p, ms)
		}
	}
	d, err := parsed.Device("M1")
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Pins) != 2 {
		t.Errorf("M1 pins = %d", len(d.Pins))
	}
	if parsed.Tech.GroundDistance != c.Tech.GroundDistance || parsed.Tech.BendCompensation != c.Tech.BendCompensation {
		t.Error("tech parameters lost")
	}
}

func TestParseExampleFile(t *testing.T) {
	src := `
# A 2-stage amplifier stub.
circuit demo
area 500 400
tech name=cmos90 t=5 width=10 delta=-4 pad=60 spacing=12

device M1 transistor 40 30
pin M1 gate -20 0
pin M1 drain 20 5 swap=1
pad P1
pad P2 80

strip TL1 P1.p M1.gate length=200
strip TL2 M1.drain P2.p length=250 width=8
`
	c, err := ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "demo" || len(c.Devices) != 3 || len(c.Microstrips) != 2 {
		t.Fatalf("parsed %s with %d devices, %d strips", c.Name, len(c.Devices), len(c.Microstrips))
	}
	if c.Tech.SpacingOverride != geom.FromMicrons(12) {
		t.Errorf("spacing override = %d", c.Tech.SpacingOverride)
	}
	p2, _ := c.Device("P2")
	if p2.Width != geom.FromMicrons(80) {
		t.Errorf("pad size = %d", p2.Width)
	}
	m1, _ := c.Device("M1")
	drain, _ := m1.Pin("drain")
	if drain.SwapGroup != 1 {
		t.Errorf("swap group = %d", drain.SwapGroup)
	}
	tl2, _ := c.Microstrip("TL2")
	if tl2.Width != geom.FromMicrons(8) || tl2.TargetLength != geom.FromMicrons(250) {
		t.Errorf("TL2 = %+v", tl2)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no circuit", "area 100 100\n"},
		{"empty", ""},
		{"bad keyword", "circuit c\nfrobnicate x\n"},
		{"bad area", "circuit c\narea 100\n"},
		{"bad area value", "circuit c\narea ten 100\n"},
		{"bad device arity", "circuit c\ndevice M1 transistor 10\n"},
		{"bad device type", "circuit c\ndevice M1 warpcoil 10 10\n"},
		{"pin before device", "circuit c\npin M1 g 0 0\n"},
		{"bad pin offset", "circuit c\ndevice M1 transistor 10 10\npin M1 g zero 0\n"},
		{"bad swap", "circuit c\ndevice M1 transistor 10 10\npin M1 g 0 0 swap=x\n"},
		{"bad terminal", "circuit c\nstrip T a b length=10\n"},
		{"bad strip param", "circuit c\ndevice M1 transistor 10 10\npin M1 g 0 0\npin M1 d 2 0\nstrip T M1.g M1.d foo=1\n"},
		{"bad tech param", "circuit c\ntech warp=9\n"},
		{"malformed tech", "circuit c\ntech t\n"},
		{"circuit arity", "circuit a b\n"},
		{"bad pad", "circuit c\npad\n"},
		{"validation failure", "circuit c\narea 100 100\nstrip T A.p B.p length=10\n"},
	}
	for _, tc := range cases {
		if _, err := ParseString(tc.src); err == nil {
			t.Errorf("%s: expected parse error", tc.name)
		}
	}
}

func TestWriteFileAndParseFile(t *testing.T) {
	c := smallCircuit()
	path := t.TempDir() + "/circuit.rfic"
	if err := os.WriteFile(path, []byte(Format(c)), 0o644); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Name != c.Name || len(parsed.Microstrips) != len(c.Microstrips) {
		t.Error("file round trip lost content")
	}
	if _, err := ParseFile(path + ".missing"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestFormatContainsComments(t *testing.T) {
	// Formatted output must not contain lines the parser rejects.
	c := smallCircuit()
	for _, line := range strings.Split(Format(c), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		head := strings.Fields(line)[0]
		switch head {
		case "circuit", "area", "tech", "device", "pin", "pad", "strip":
		default:
			t.Errorf("unexpected line in formatted output: %q", line)
		}
	}
}
