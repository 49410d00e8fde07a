// Package fuzz generates seeded random RFIC circuits for the metamorphic
// audit battery (internal/audit). Where package circuits reproduces the three
// published Table 1 designs plus one synthetic stress family, this package
// spans the topology space those designs come from: LNA-shaped cascades with
// shunt matching stubs, mixer-shaped three-port trees meeting at a core
// device, and PA-shaped chains of wide output stages — each crossed with
// square/wide/tall layout aspect regimes, short/long/mixed strip-length
// regimes, and a near-symmetric degenerate mode in which every stage has
// identical dimensions and every strip the identical target length (the tie
// storm that stresses the solver's lexicographic canonicalization).
//
// Generation is a pure function of the seed: the same seed always yields a
// circuit with byte-identical netlist.Canonical text, which is what lets the
// fuzz sweep (TestSweep in internal/audit) promise byte-identical records
// across runs and lets a failing seed be replayed exactly. The profile
// dimensions (shape × aspect × length regime × symmetry) are stratified over
// consecutive seeds, so any contiguous block of ProfilePeriod seeds covers
// the whole matrix.
package fuzz

import (
	"fmt"
	"math"
	"math/rand"

	"rficlayout/internal/geom"
	"rficlayout/internal/netlist"
	"rficlayout/internal/tech"
)

// Shape is the topology family of a generated circuit.
type Shape string

// The three topology families, mirroring the device mixes of real mm-wave
// front-ends.
const (
	// ShapeLNA is a cascade amplifier: input pad → N gain stages → output
	// pad, with shunt matching stubs hanging off the stage outputs.
	ShapeLNA Shape = "lna"
	// ShapeMixer is a three-port tree: RF and LO input chains meeting at a
	// core device whose IF chain leads to the output pad.
	ShapeMixer Shape = "mixer"
	// ShapePA is a power-amplifier chain: few stages, wide transistors,
	// extra bias/decoupling blocks placed without precision microstrips.
	ShapePA Shape = "pa"
)

// Aspect is the layout-area aspect regime.
type Aspect string

// Aspect regimes; wide and tall are the pathological ones.
const (
	AspectSquare Aspect = "square"
	AspectWide   Aspect = "wide"
	AspectTall   Aspect = "tall"
)

// Lengths is the strip-length regime.
type Lengths string

// Length regimes.
const (
	LengthsShort Lengths = "short"
	LengthsLong  Lengths = "long"
	LengthsMixed Lengths = "mixed"
)

var (
	shapes  = []Shape{ShapeLNA, ShapeMixer, ShapePA}
	aspects = []Aspect{AspectSquare, AspectWide, AspectTall}
	lengths = []Lengths{LengthsShort, LengthsLong, LengthsMixed}
)

// ProfilePeriod is the number of consecutive seeds that covers every
// shape × aspect × length-regime × symmetry combination exactly once.
const ProfilePeriod = 3 * 3 * 3 * 2

// Profile describes what one seed generated — the coordinates of the circuit
// in the topology matrix plus its headline statistics. Every field is a pure
// function of the seed.
type Profile struct {
	Seed        int64   `json:"seed"`
	Shape       Shape   `json:"shape"`
	Aspect      Aspect  `json:"aspect"`
	Lengths     Lengths `json:"lengths"`
	Symmetric   bool    `json:"symmetric"`
	Devices     int     `json:"devices"`
	Microstrips int     `json:"strips"`
	// AreaWidth and AreaHeight are in microns.
	AreaWidth  float64 `json:"area_w_um"`
	AreaHeight float64 `json:"area_h_um"`
}

// profileOf stratifies the matrix dimensions over consecutive seeds.
func profileOf(seed int64) Profile {
	i := seed % ProfilePeriod
	if i < 0 {
		i += ProfilePeriod
	}
	return Profile{
		Seed:      seed,
		Shape:     shapes[i%3],
		Aspect:    aspects[(i/3)%3],
		Lengths:   lengths[(i/9)%3],
		Symmetric: (i/27)%2 == 1,
	}
}

// Generate builds the circuit of a seed together with its profile. The
// result always passes netlist.Validate; the same seed always produces
// byte-identical netlist.Canonical text.
func Generate(seed int64) (*netlist.Circuit, Profile) {
	p := profileOf(seed)
	rng := rand.New(rand.NewSource(seed))
	g := &generator{p: p, rng: rng, t: tech.Default90nm()}
	c := g.build()
	p.Devices = len(c.Devices)
	p.Microstrips = len(c.Microstrips)
	p.AreaWidth = geom.Microns(c.AreaWidth)
	p.AreaHeight = geom.Microns(c.AreaHeight)
	return c, p
}

// generator holds the state of one seeded build.
type generator struct {
	p   Profile
	rng *rand.Rand
	t   tech.Technology

	devices []*netlist.Device
	strips  []*netlist.Microstrip
}

// stripLen draws a target length (µm) from the profile's regime. In the
// symmetric mode the draw collapses to the regime midpoint so every strip of
// the circuit carries the identical target — maximally degenerate ties.
func (g *generator) stripLen() float64 {
	var lo, hi float64
	switch g.p.Lengths {
	case LengthsShort:
		lo, hi = 55, 115
	case LengthsLong:
		lo, hi = 190, 320
	default: // mixed
		lo, hi = 60, 300
	}
	if g.p.Symmetric {
		return math.Round((lo + hi) / 2)
	}
	return math.Round(lo + g.rng.Float64()*(hi-lo))
}

// transistor draws a gain-stage transistor. PA stages are much wider; the
// symmetric mode pins every stage to one fixed geometry.
func (g *generator) transistor(name string) *netlist.Device {
	var w, h float64
	switch {
	case g.p.Symmetric && g.p.Shape == ShapePA:
		w, h = 80, 36
	case g.p.Symmetric:
		w, h = 36, 30
	case g.p.Shape == ShapePA:
		w = float64(64 + g.rng.Intn(57)) // 64..120
		h = float64(30 + g.rng.Intn(21)) // 30..50
	default:
		w = float64(28 + g.rng.Intn(19)) // 28..46
		h = float64(24 + g.rng.Intn(15)) // 24..38
	}
	d := netlist.NewDevice(name, netlist.Transistor, geom.FromMicrons(w), geom.FromMicrons(h))
	d.AddPin("in", geom.PtMicrons(-w/2, 0), 0)
	d.AddPin("out", geom.PtMicrons(w/2, 0), 0)
	return d
}

// passive draws a stub/bias passive (capacitor or inductor) with a single
// pin on its bottom edge.
func (g *generator) passive(name string) *netlist.Device {
	kind := netlist.Capacitor
	if g.rng.Intn(3) == 0 {
		kind = netlist.Inductor
	}
	var w, h float64
	if g.p.Symmetric {
		kind = netlist.Capacitor
		w, h = 40, 34
	} else {
		w = float64(30 + g.rng.Intn(31)) // 30..60
		h = float64(25 + g.rng.Intn(26)) // 25..50
	}
	d := netlist.NewDevice(name, kind, geom.FromMicrons(w), geom.FromMicrons(h))
	d.AddPin("p", geom.PtMicrons(0, -h/2), 0)
	return d
}

func (g *generator) addDevice(d *netlist.Device) *netlist.Device {
	g.devices = append(g.devices, d)
	return d
}

func (g *generator) connect(name, fromDev, fromPin, toDev, toPin string, lenUM float64) {
	g.strips = append(g.strips, &netlist.Microstrip{
		Name:         name,
		From:         netlist.Terminal{Device: fromDev, Pin: fromPin},
		To:           netlist.Terminal{Device: toDev, Pin: toPin},
		TargetLength: geom.FromMicrons(lenUM),
	})
}

// chain appends a run of transistor stages between two endpoint terminals,
// connecting consecutive elements with regime-length strips. Names are
// prefixed so the three mixer branches stay distinct.
func (g *generator) chain(prefix string, stages int, from netlist.Terminal, to netlist.Terminal) []string {
	names := make([]string, 0, stages)
	prev := from
	for i := 1; i <= stages; i++ {
		name := fmt.Sprintf("%s%d", prefix, i)
		g.addDevice(g.transistor(name))
		g.connect(fmt.Sprintf("TL%s%d", prefix, i), prev.Device, prev.Pin, name, "in", g.stripLen())
		prev = netlist.Terminal{Device: name, Pin: "out"}
		names = append(names, name)
	}
	g.connect(fmt.Sprintf("TL%sout", prefix), prev.Device, prev.Pin, to.Device, to.Pin, g.stripLen())
	return names
}

// stubsOn attaches count shunt stubs round-robin to the given anchor devices'
// "out" pins.
func (g *generator) stubsOn(anchors []string, count int) {
	for i := 0; i < count && len(anchors) > 0; i++ {
		name := fmt.Sprintf("C%d", i+1)
		g.addDevice(g.passive(name))
		stubLen := g.stripLen() * 0.6
		if stubLen < 45 {
			stubLen = 45
		}
		g.connect(fmt.Sprintf("TLc%d", i+1), anchors[i%len(anchors)], "out", name, "p", math.Round(stubLen))
	}
}

// biasBlocks appends count unconnected bias/decoupling devices.
func (g *generator) biasBlocks(count int) {
	for i := 0; i < count; i++ {
		g.addDevice(g.passive(fmt.Sprintf("B%d", i+1)))
	}
}

// build assembles the topology of the profile's shape and sizes the layout
// area to fit it.
func (g *generator) build() *netlist.Circuit {
	pin := netlist.NewPad("PIN", g.t.PadSize)
	pout := netlist.NewPad("POUT", g.t.PadSize)

	switch g.p.Shape {
	case ShapeMixer:
		plo := netlist.NewPad("PLO", g.t.PadSize)
		g.addDevice(pin)
		g.addDevice(plo)
		g.addDevice(pout)
		core := g.addDevice(netlist.NewDevice("XCORE", netlist.Transistor,
			geom.FromMicrons(44), geom.FromMicrons(40)))
		core.AddPin("rf", geom.PtMicrons(-22, 8), 0)
		core.AddPin("lo", geom.PtMicrons(-22, -8), 0)
		core.AddPin("if", geom.PtMicrons(22, 0), 0)
		rf := g.chain("MR", 1+g.rng.Intn(2), term("PIN", "p"), term("XCORE", "rf"))
		lo := g.chain("ML", 1+g.rng.Intn(2), term("PLO", "p"), term("XCORE", "lo"))
		ifc := g.chain("MI", 1+g.rng.Intn(2), term("XCORE", "if"), term("POUT", "p"))
		anchors := append(append(rf, lo...), ifc...)
		g.stubsOn(anchors, 1+g.rng.Intn(3))
		g.biasBlocks(g.rng.Intn(3))
	case ShapePA:
		g.addDevice(pin)
		g.addDevice(pout)
		stages := g.chain("P", 2+g.rng.Intn(2), term("PIN", "p"), term("POUT", "p"))
		g.stubsOn(stages, 1+g.rng.Intn(2))
		g.biasBlocks(1 + g.rng.Intn(4))
	default: // ShapeLNA
		g.addDevice(pin)
		g.addDevice(pout)
		stages := g.chain("M", 2+g.rng.Intn(3), term("PIN", "p"), term("POUT", "p"))
		g.stubsOn(stages, 2+g.rng.Intn(3))
		g.biasBlocks(g.rng.Intn(2))
	}

	c := netlist.NewCircuit(fmt.Sprintf("fuzz%d", g.p.Seed), g.t, 0, 0)
	for _, d := range g.devices {
		c.AddDevice(d)
	}
	for _, ms := range g.strips {
		c.AddMicrostrip(ms)
	}
	g.sizeArea(c)
	return c
}

func term(dev, pin string) netlist.Terminal { return netlist.Terminal{Device: dev, Pin: pin} }

// sizeArea picks the layout area for the assembled circuit: large enough
// that a serpentine of rows can realize the total strip length plus the
// device widths (the same capacity model circuits.LargeSpec uses), shaped by
// the profile's aspect regime. If the first estimate still fails validation
// (pathological aspect ratios can leave a side too short for the widest
// device) the area grows deterministically until the circuit validates.
func (g *generator) sizeArea(c *netlist.Circuit) {
	var need geom.Coord
	for _, ms := range c.Microstrips {
		need += ms.TargetLength
	}
	for _, d := range c.Devices {
		need += d.Width + d.Height
	}
	needUM := geom.Microns(need) * 1.35

	ratio := 1.0
	switch g.p.Aspect {
	case AspectWide:
		ratio = 3.5
	case AspectTall:
		ratio = 1.0 / 3.5
	}
	// Rows available ≈ H/130 µm, each carrying ≈ 0.78·W of usable length:
	// capacity = (H/130)·(ratio·H)·0.78 ⇒ H = sqrt(need·130/(0.78·ratio)).
	h := math.Sqrt(needUM * 130 / (0.78 * ratio))
	w := ratio * h
	for i := 0; i < 32; i++ {
		c.AreaWidth = geom.FromMicrons(math.Round(w))
		c.AreaHeight = geom.FromMicrons(math.Round(h))
		if c.Validate() == nil {
			return
		}
		w *= 1.15
		h *= 1.15
	}
}
