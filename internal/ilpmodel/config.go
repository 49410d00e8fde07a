// Package ilpmodel builds the integer-linear-programming model of Section 4
// of the paper: concurrent exact device placement and fixed-length microstrip
// routing. A microstrip is decomposed into segments joined at chain points;
// 0-1 direction variables select each segment's direction (Eq. 1–5), the
// segment lengths are linearized (Eq. 6–7), bends are detected from direction
// changes (Eq. 8–11), the equivalent length including the per-bend
// compensation δ must match the target exactly (Eq. 12–13) or, in the soft
// phase-1 form, approximately with penalized mismatch (Eq. 24–25). Pins bind
// route endpoints to devices (Eq. 14) and expanded bounding boxes must not
// overlap (Eq. 16–20). The objective minimizes the maximum and total bend
// counts (Eq. 21 / 26).
//
// The non-overlap constraints express the spacing rule of Section 2.1, which
// lives in internal/layout: a pair gets no constraint exactly when
// layout.SpacingExempt exempts it, the predicate the design-rule check uses,
// so the model and the check skip the same pairs.
//
// The model is expressed on top of internal/milp and solved by its
// branch-and-bound engine. Every model is a restricted instance around a
// previous layout, as in the progressive flow of internal/pilp: Config.Fixed
// holds that layout, the objects not named free are constants taken from it,
// and the I/O pads are always among those constants. Free coordinates can be
// confined to τd windows around Fixed, non-overlap pairs pruned by distance
// in Fixed, and segment directions pinned to Fixed's topology.
package ilpmodel

import (
	"fmt"
	"slices"

	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
)

// The objective coefficients of Eq. 21 and Eq. 26. They balance one bend
// against roughly two micrometres of length mismatch or overlap, matching the
// priorities the paper describes: exact lengths and few bends first, residual
// overlap cleanup second.
const (
	// weightAlpha weighs the maximum bend count over all microstrips.
	weightAlpha = 10
	// weightBeta weighs the total bend count.
	weightBeta = 1
	// weightGamma weighs the maximum unmatched length (soft-length mode only).
	weightGamma = 0.02
	// weightZeta weighs the total unmatched length (soft-length mode only).
	weightZeta = 0.005
	// weightEta weighs the total overlap slack (overlap-slack mode only).
	weightEta = 0.01
)

// Config controls which parts of the full Section-4 model are built and how
// much freedom the instance has around the Fixed layout.
type Config struct {
	// DefaultChainPoints, when at least 2 (a single straight segment), is
	// the number of chain points n_i of every free microstrip. Below 2 each
	// free strip keeps the point count of its route in Fixed, or gets 4
	// when Fixed does not route it: the flow resamples a strip's route to
	// the count it wants before building, so the route carries it.
	DefaultChainPoints int

	// FreeDevices and FreeStrips name the objects whose geometry the solver
	// may change; nil names none. Every other object takes its position or
	// route from Fixed and is a constant (an obstacle). Pads are never free:
	// the flow keeps the I/O pads where construction put them.
	FreeDevices []string
	FreeStrips  []string

	// Fixed is the layout the model is built around: positions of the
	// non-free objects, warm-start positions for confinement and pair
	// pruning, and the topology for FixTopology. Build requires it.
	Fixed *layout.Layout

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
	// at the cost of freezing the relative order of objects — exactly the
	// restriction the τd confinement of Sections 5.2–5.3 imposes implicitly.
	// Pairs without warm geometry keep the full disjunction.
	RelativePositions bool

	// Confinement, when positive, restricts every free coordinate to a
	// window of ±Confinement around its value in Fixed (the τd confinement
	// of Sections 5.2–5.3).
	Confinement geom.Coord
	// PairRadius, when positive, drops non-overlap constraints between
	// objects whose expanded boxes in Fixed are farther apart than this
	// radius. Zero keeps every pair.
	PairRadius geom.Coord
}

func (c Config) chainPoints(strip string) int {
	if c.DefaultChainPoints >= 2 {
		return c.DefaultChainPoints
	}
	if rs := c.Fixed.Routed(strip); rs != nil {
		return len(rs.Path.Points)
	}
	return 4
}

func (c Config) deviceFree(name string) bool {
	return slices.Contains(c.FreeDevices, name)
}

func (c Config) stripFree(name string) bool {
	return slices.Contains(c.FreeStrips, name)
}

// validate checks that the configuration is usable for the circuit.
func (c Config) validate(ckt *netlist.Circuit) error {
	if c.Fixed == nil {
		return fmt.Errorf("ilpmodel: configuration has no Fixed layout")
	}
	for _, name := range c.FreeDevices {
		d, err := ckt.Device(name)
		if err != nil {
			return fmt.Errorf("ilpmodel: free device %q not in circuit", name)
		}
		if d.IsPad() {
			return fmt.Errorf("ilpmodel: pad %q cannot be free", name)
		}
	}
	for _, name := range c.FreeStrips {
		if _, err := ckt.Microstrip(name); err != nil {
			return fmt.Errorf("ilpmodel: free microstrip %q not in circuit", name)
		}
	}
	return nil
}
