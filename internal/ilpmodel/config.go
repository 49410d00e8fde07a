// Package ilpmodel builds the integer-linear-programming model of Section 4
// of the paper: concurrent exact device placement and fixed-length microstrip
// routing. A microstrip is decomposed into segments joined at chain points;
// 0-1 direction variables select each segment's direction (Eq. 1–5), the
// segment lengths are linearized (Eq. 6–7), bends are detected from direction
// changes (Eq. 8–11), the equivalent length including the per-bend
// compensation δ must match the target exactly (Eq. 12–13) or, in the soft
// phase-1 form, approximately with penalized mismatch (Eq. 23–25). Pins bind
// route endpoints to devices (Eq. 14), pads sit on the layout boundary
// (Eq. 15) and expanded bounding boxes must not overlap (Eq. 16–20). The
// objective minimizes the maximum and total bend counts (Eq. 21 / 26).
//
// The model is expressed on top of internal/milp and solved by its
// branch-and-bound engine. To keep from-scratch solves tractable, the
// progressive flow in internal/pilp builds restricted instances through
// Config: objects can be fixed at known positions, coordinates confined to
// τd windows, non-overlap pairs pruned by distance, and segment directions
// pinned to a warm-start topology.
package ilpmodel

import (
	"fmt"

	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
)

// Weights are the objective coefficients of Eq. 21 and Eq. 26.
type Weights struct {
	// Alpha weighs the maximum bend count over all microstrips.
	Alpha float64
	// Beta weighs the total bend count.
	Beta float64
	// Gamma weighs the maximum unmatched length (soft-length mode only).
	Gamma float64
	// Zeta weighs the total unmatched length (soft-length mode only).
	Zeta float64
	// Eta weighs the total overlap slack (overlap-slack mode only).
	Eta float64
}

// DefaultWeights balances one bend against roughly two micrometres of length
// mismatch or overlap, matching the priorities the paper describes: exact
// lengths and few bends first, residual overlap cleanup second.
func DefaultWeights() Weights {
	return Weights{Alpha: 10, Beta: 1, Gamma: 0.02, Zeta: 0.005, Eta: 0.01}
}

// Config controls which parts of the full Section-4 model are built and how
// much freedom the instance has.
type Config struct {
	// DefaultChainPoints is the number of chain points n_i given to every
	// microstrip that has no entry in ChainPoints. The minimum is 2 (a single
	// straight segment); the paper's phase 1 fixes a small constant and later
	// phases insert more where needed. Zero means 4.
	DefaultChainPoints int
	// ChainPoints overrides the chain-point count per microstrip name.
	ChainPoints map[string]int
	// Orientations fixes the orientation of each device (default R0).
	// Device rotation is explored by the refinement phase, which rebuilds
	// the model with different assignments.
	Orientations map[string]geom.Orientation

	// FreeDevices and FreeStrips name the objects whose geometry the solver
	// may change. Nil means "all". Objects that are not free must have a
	// position/route in Fixed and are treated as constants (obstacles).
	FreeDevices []string
	FreeStrips  []string

	// Fixed supplies positions for non-free objects, warm-start positions
	// for confinement, and the topology for FixTopology.
	Fixed *layout.Layout

	// Blurred selects the phase-1 abstraction (Section 5.1): device
	// geometries are not modeled; each microstrip connects device centres
	// directly, the spacing boxes of its end segments are enlarged by the
	// pin reach of the device (Figure 8), and the target length is increased
	// by the centre-to-pin distances (Eq. 23).
	Blurred bool
	// SoftLength replaces the exact-length equality (Eq. 13) with the
	// penalized mismatch bounds of Eq. 24–25.
	SoftLength bool
	// OverlapSlack adds a penalized slack to every non-overlap pair
	// (Section 5.1 allows residual overlap in phase 1, Figure 9).
	OverlapSlack bool
	// FixTopology pins every free strip's segment directions to the
	// directions of its route in Fixed, leaving only the coordinates
	// continuous. Requires Fixed routes whose point count matches the
	// configured chain points.
	FixTopology bool
	// RelativePositions replaces the four-way disjunctive non-overlap
	// constraints (Eq. 16–20) by the single separation constraint that the
	// Fixed layout already realizes for each pair, eliminating the
	// disjunction binaries. This keeps the global adjustment phases pure LPs
	// (plus pad binaries) at the cost of freezing the relative order of
	// objects — exactly the restriction the τd confinement of Sections
	// 5.2–5.3 imposes implicitly. Pairs without warm geometry keep the full
	// disjunction.
	RelativePositions bool

	// Confinement, when positive, restricts every free coordinate to a
	// window of ±Confinement around its value in Fixed (the τd confinement
	// of Sections 5.2–5.3).
	Confinement geom.Coord
	// PairRadius, when positive, drops non-overlap constraints between
	// objects whose expanded boxes in Fixed are farther apart than this
	// radius. Zero keeps every pair.
	PairRadius geom.Coord

	// Weights are the objective coefficients; the zero value means
	// DefaultWeights.
	Weights Weights
}

func (c Config) chainPoints(strip string) int {
	if n, ok := c.ChainPoints[strip]; ok && n >= 2 {
		return n
	}
	if c.DefaultChainPoints >= 2 {
		return c.DefaultChainPoints
	}
	return 4
}

func (c Config) orientation(device string) geom.Orientation {
	if o, ok := c.Orientations[device]; ok {
		return o.Normalize()
	}
	return geom.R0
}

func (c Config) weights() Weights {
	if c.Weights == (Weights{}) {
		return DefaultWeights()
	}
	return c.Weights
}

func (c Config) deviceFree(name string) bool {
	if c.FreeDevices == nil {
		return true
	}
	for _, n := range c.FreeDevices {
		if n == name {
			return true
		}
	}
	return false
}

func (c Config) stripFree(name string) bool {
	if c.FreeStrips == nil {
		return true
	}
	for _, n := range c.FreeStrips {
		if n == name {
			return true
		}
	}
	return false
}

// validate checks that the configuration is usable for the circuit.
func (c Config) validate(ckt *netlist.Circuit) error {
	needFixed := c.FreeDevices != nil || c.FreeStrips != nil || c.FixTopology || c.Confinement > 0 || c.PairRadius > 0
	if needFixed && c.Fixed == nil {
		return fmt.Errorf("ilpmodel: configuration requires a Fixed layout (fixed objects, topology, confinement or pair pruning requested)")
	}
	for name := range c.ChainPoints {
		if _, err := ckt.Microstrip(name); err != nil {
			return fmt.Errorf("ilpmodel: chain-point override for unknown microstrip %q", name)
		}
	}
	for name := range c.Orientations {
		if _, err := ckt.Device(name); err != nil {
			return fmt.Errorf("ilpmodel: orientation override for unknown device %q", name)
		}
	}
	for _, name := range c.FreeDevices {
		if _, err := ckt.Device(name); err != nil {
			return fmt.Errorf("ilpmodel: free device %q not in circuit", name)
		}
	}
	for _, name := range c.FreeStrips {
		if _, err := ckt.Microstrip(name); err != nil {
			return fmt.Errorf("ilpmodel: free microstrip %q not in circuit", name)
		}
	}
	return nil
}
