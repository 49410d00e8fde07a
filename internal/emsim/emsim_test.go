package emsim

import (
	"math"
	"testing"

	"rficlayout/internal/geom"
	"rficlayout/internal/manual"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
	"rficlayout/internal/tech"
)

func TestCascadeIdentity(t *testing.T) {
	line := Line(geom.FromMicrons(200), 60)
	both := Identity().Cascade(line)
	if both != line {
		t.Error("cascading with identity changed the two-port")
	}
}

func TestLineIsReciprocalAndLossy(t *testing.T) {
	line := Line(geom.FromMicrons(500), 94)
	s11, s21, s12, _ := line.SParams(characteristicImpedance)
	if math.Abs(db(s21)-db(s12)) > 1e-9 {
		t.Error("passive line must be reciprocal")
	}
	if db(s21) >= 0 {
		t.Errorf("lossy line has gain %f dB", db(s21))
	}
	if db(s11) > -25 {
		t.Errorf("matched line should have low reflection, got %f dB", db(s11))
	}
	// Longer lines lose more.
	_, s21long, _, _ := Line(geom.FromMicrons(2000), 94).SParams(characteristicImpedance)
	if db(s21long) >= db(s21) {
		t.Error("longer line should be lossier")
	}
}

func TestBendsReduceGain(t *testing.T) {
	_, none, _, _ := Identity().Cascade(Bends(0, 60)).SParams(50)
	_, many, _, _ := Identity().Cascade(Bends(10, 60)).SParams(50)
	if db(many) >= db(none) {
		t.Errorf("10 bends (%f dB) should lose more than 0 bends (%f dB)", db(many), db(none))
	}
}

func TestStagePeaksAtCenter(t *testing.T) {
	_, atCenter, _, _ := Identity().Cascade(Stage(60, 60)).SParams(50)
	_, offCenter, _, _ := Identity().Cascade(Stage(45, 60)).SParams(50)
	if db(atCenter) <= 0 {
		t.Errorf("stage gain %f dB at centre should be positive", db(atCenter))
	}
	if db(offCenter) >= db(atCenter) {
		t.Error("gain should roll off away from the centre frequency")
	}
}

func TestSweepAndGainAt(t *testing.T) {
	fs := Sweep(60, 11)
	if len(fs) != 11 || fs[0] >= fs[10] {
		t.Fatalf("sweep = %v", fs)
	}
	res := []Result{{FreqGHz: 59, S21dB: 1}, {FreqGHz: 60, S21dB: 2}, {FreqGHz: 61, S21dB: 3}}
	if GainAt(res, 60.2) != 2 {
		t.Error("GainAt picked the wrong point")
	}
}

// buildAmp builds a 2-stage amplifier and lays it out with both flows.
func TestPILPLayoutBeatsBendHeavyManualLayout(t *testing.T) {
	c := netlist.NewCircuit("amp2", tech.Default90nm(), geom.FromMicrons(500), geom.FromMicrons(380))
	for _, name := range []string{"M1", "M2"} {
		d := netlist.NewDevice(name, netlist.Transistor, geom.FromMicrons(40), geom.FromMicrons(30))
		d.AddPin("in", geom.PtMicrons(-20, 0), 0)
		d.AddPin("out", geom.PtMicrons(20, 0), 0)
		c.AddDevice(d)
	}
	c.AddDevice(netlist.NewPad("PIN", c.Tech.PadSize))
	c.AddDevice(netlist.NewPad("POUT", c.Tech.PadSize))
	c.Connect("TL1", "PIN", "p", "M1", "in", geom.FromMicrons(150))
	c.Connect("TL2", "M1", "out", "M2", "in", geom.FromMicrons(180))
	c.Connect("TL3", "M2", "out", "POUT", "p", geom.FromMicrons(160))

	manualLayout, err := manual.Generate(c)
	if err != nil {
		t.Fatal(err)
	}
	pilpLayout, err := pilp.Construct(c)
	if err != nil {
		t.Fatal(err)
	}

	freqs := Sweep(60, 41)
	manualRes := SimulateLayout(manualLayout, freqs, 60)
	pilpRes := SimulateLayout(pilpLayout, freqs, 60)
	if len(manualRes) != len(freqs) || len(pilpRes) != len(freqs) {
		t.Fatal("wrong sweep length")
	}
	gManual := GainAt(manualRes, 60)
	gPILP := GainAt(pilpRes, 60)
	if math.IsNaN(gManual) || math.IsNaN(gPILP) {
		t.Fatal("NaN gain")
	}
	// The meander-heavy manual layout must not out-perform the low-bend
	// layout at the operating frequency (the Figure 11 relationship).
	if gManual > gPILP+0.01 {
		t.Errorf("manual gain %.2f dB exceeds low-bend layout gain %.2f dB", gManual, gPILP)
	}
}
