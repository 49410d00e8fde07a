// Package circuits provides the benchmark circuits of the paper's evaluation
// (Table 1): a 94 GHz LNA with 25 microstrips and 34 devices, a 60 GHz buffer
// with 14 microstrips and 26 devices, and a 60 GHz LNA with 19 microstrips
// and 28 devices, each with the published layout-area settings. The original
// netlists are unpublished, so the circuits here are synthetic cascade
// amplifiers generated to the published statistics: the same microstrip and
// device counts, the same areas, and target lengths in the range typical of
// matching stubs and interconnect at those frequencies. See DESIGN.md for the
// substitution rationale.
package circuits

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"rficlayout/internal/geom"
	"rficlayout/internal/netlist"
	"rficlayout/internal/tech"
)

// Spec describes one benchmark circuit and its two area settings from
// Table 1.
type Spec struct {
	Name        string
	Microstrips int
	Devices     int
	// AreaA is the area of the manual layout; AreaB is the smaller stress
	// area (µm).
	AreaAWidth, AreaAHeight float64
	AreaBWidth, AreaBHeight float64
	// Frequency is the operating frequency in GHz (for the RF simulation).
	Frequency float64
	// Seed makes the synthetic netlist generation reproducible.
	Seed int64
}

// Table1 returns the three circuits of Table 1 with the paper's published
// statistics.
func Table1() []Spec {
	return []Spec{
		{Name: "lna94", Microstrips: 25, Devices: 34, AreaAWidth: 890, AreaAHeight: 615, AreaBWidth: 845, AreaBHeight: 580, Frequency: 94, Seed: 94},
		{Name: "buffer60", Microstrips: 14, Devices: 26, AreaAWidth: 595, AreaAHeight: 850, AreaBWidth: 505, AreaBHeight: 720, Frequency: 60, Seed: 60},
		{Name: "lna60", Microstrips: 19, Devices: 28, AreaAWidth: 600, AreaAHeight: 855, AreaBWidth: 570, AreaBHeight: 810, Frequency: 60, Seed: 61},
	}
}

// LargeSpec returns a synthetic stress circuit roughly scale× the size of
// the largest Table 1 design, for exercising the flow at scale (pilp's
// node-budgeted warm/cold large-flow test): the device/microstrip counts grow linearly with scale and the layout area
// grows with √scale per side so the density stays comparable. The generation
// is seeded, so a given scale always yields the same circuit. Scale values
// below 1 are clamped to 1; LargeSpec(1) is "large" and reachable through
// BySpecName.
func LargeSpec(scale int) Spec {
	if scale < 1 {
		scale = 1
	}
	side := math.Sqrt(float64(scale))
	name := "large"
	if scale > 1 {
		name = fmt.Sprintf("large%d", scale)
	}
	return Spec{
		Name:        name,
		Microstrips: 20 * scale,
		Devices:     30 * scale,
		AreaAWidth:  math.Round(900 * side),
		AreaAHeight: math.Round(640 * side),
		AreaBWidth:  math.Round(850 * side),
		AreaBHeight: math.Round(600 * side),
		Frequency:   60,
		Seed:        1000 + int64(scale),
	}
}

// BySpecName returns the Table 1 spec with the given name, or the synthetic
// large-circuit spec for "large" / "largeN" (e.g. "large4" is four times the
// base size).
func BySpecName(name string) (Spec, error) {
	for _, s := range Table1() {
		if s.Name == name {
			return s, nil
		}
	}
	if rest, ok := strings.CutPrefix(name, "large"); ok {
		if rest == "" {
			return LargeSpec(1), nil
		}
		// Atoi (rather than Sscanf) so trailing junk like "large4x" stays
		// unknown; "large1" is an accepted alias for "large".
		if scale, err := strconv.Atoi(rest); err == nil && scale >= 1 {
			return LargeSpec(scale), nil
		}
	}
	return Spec{}, fmt.Errorf("circuits: unknown benchmark circuit %q", name)
}

// Build generates the circuit of a spec at its manual-layout area (setting A).
func Build(s Spec) *netlist.Circuit {
	return build(s, s.AreaAWidth, s.AreaAHeight)
}

// BuildSmallArea generates the circuit at the smaller stress area (setting B).
func BuildSmallArea(s Spec) *netlist.Circuit {
	return build(s, s.AreaBWidth, s.AreaBHeight)
}

// build synthesizes a cascade amplifier netlist with exactly s.Microstrips
// microstrips and s.Devices devices inside the given area.
func build(s Spec, areaW, areaH float64) *netlist.Circuit {
	rng := rand.New(rand.NewSource(s.Seed))
	t := tech.Default90nm()
	c := netlist.NewCircuit(s.Name, t, geom.FromMicrons(areaW), geom.FromMicrons(areaH))

	// The main chain: input pad, N transistor stages, output pad. The chain
	// consumes 2 pads + N transistors and N+1 microstrips; roughly half of
	// the remaining microstrip budget becomes shunt stubs (matching-network
	// capacitors/inductors attached to chain nodes). Devices beyond
	// 2 + stages + stubs are bias/decoupling blocks that are placed but not
	// connected by precision microstrips, which is how the published
	// device/microstrip ratios of Table 1 (more devices than a connected
	// microstrip tree allows) arise in practice.
	stubCount := s.Microstrips / 2
	chainStrips := s.Microstrips - stubCount
	stages := chainStrips - 1
	if stages < 1 {
		stages = 1
		chainStrips = 2
		stubCount = s.Microstrips - chainStrips
		if stubCount < 0 {
			stubCount = 0
		}
	}
	extraDevices := s.Devices - 2 - stages - stubCount
	if extraDevices < 0 {
		extraDevices = 0
	}

	addTransistor := func(name string) *netlist.Device {
		w := float64(28 + rng.Intn(19))
		h := float64(24 + rng.Intn(15))
		d := netlist.NewDevice(name, netlist.Transistor, geom.FromMicrons(w), geom.FromMicrons(h))
		d.AddPin("in", geom.PtMicrons(-w/2, 0), 0)
		d.AddPin("out", geom.PtMicrons(w/2, 0), 0)
		return d
	}
	addStubDevice := func(name string) *netlist.Device {
		kind := netlist.Capacitor
		if rng.Intn(3) == 0 {
			kind = netlist.Inductor
		}
		w := float64(30 + rng.Intn(31))
		h := float64(25 + rng.Intn(26))
		d := netlist.NewDevice(name, kind, geom.FromMicrons(w), geom.FromMicrons(h))
		d.AddPin("p", geom.PtMicrons(0, -h/2), 0)
		return d
	}

	c.AddDevice(netlist.NewPad("PIN", t.PadSize))
	c.AddDevice(netlist.NewPad("POUT", t.PadSize))
	chain := []string{"PIN"}
	for i := 1; i <= stages; i++ {
		name := fmt.Sprintf("M%d", i)
		c.AddDevice(addTransistor(name))
		chain = append(chain, name)
	}
	chain = append(chain, "POUT")

	// Target lengths: sized so the serpentine of the chain fits the area.
	// Rows available ≈ areaH / 130 µm; usable length ≈ rows · areaW · 0.8.
	usable := (areaH / 130) * areaW * 0.78
	perStrip := usable / float64(chainStrips)
	if perStrip > 320 {
		perStrip = 320
	}
	if perStrip < 70 {
		perStrip = 70
	}
	terminalPin := func(dev string, toward string) string {
		d, _ := c.Device(dev)
		if d.IsPad() {
			return "p"
		}
		if toward == "next" {
			return "out"
		}
		return "in"
	}
	stripIdx := 0
	for i := 0; i+1 < len(chain); i++ {
		stripIdx++
		length := perStrip * (0.75 + rng.Float64()*0.5)
		c.Connect(fmt.Sprintf("TL%d", stripIdx),
			chain[i], terminalPin(chain[i], "next"),
			chain[i+1], terminalPin(chain[i+1], "prev"),
			geom.FromMicrons(length))
	}

	// Stubs: attach to chain transistor outputs round-robin.
	for sIdx := 0; sIdx < stubCount; sIdx++ {
		name := fmt.Sprintf("C%d", sIdx+1)
		c.AddDevice(addStubDevice(name))
		anchor := chain[1+sIdx%stages]
		stripIdx++
		length := 50 + rng.Float64()*90
		c.Connect(fmt.Sprintf("TL%d", stripIdx), anchor, "out", name, "p", geom.FromMicrons(length))
	}

	// Bias / decoupling blocks: placed as obstacles, no precision microstrip.
	for e := 0; e < extraDevices; e++ {
		name := fmt.Sprintf("B%d", e+1)
		c.AddDevice(addStubDevice(name))
	}
	return c
}
