// Package ilpmodel builds the integer-linear-programming model of Section 4
// of the paper: concurrent exact device placement and fixed-length microstrip
// routing. A microstrip is decomposed into segments joined at chain points;
// 0-1 direction variables select each segment's direction (Eq. 1–5), the
// segment lengths are linearized (Eq. 6–7), bends are detected from direction
// changes (Eq. 8–11), the equivalent length including the per-bend
// compensation δ must match the target exactly (Eq. 12–13) or, in the Global
// form, approximately with penalized mismatch (Eq. 24–25). Pins bind
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
// holds that layout, complete (every device placed, every microstrip
// routed), the objects not named free are constants taken from it, and the
// I/O pads are always among those constants. Free coordinates can be
// confined to τd windows around Fixed and non-overlap pairs pruned by
// distance in Fixed.
//
// A model takes one of two forms. The exact form is the per-strip ILP of
// Eq. 1–20: exact lengths, hard non-overlap disjunctions, free segment
// directions. The Global form is the phase-1 global adjustment of
// Section 5.1: soft lengths (Eq. 24–25), penalized residual overlap
// (Figure 9), segment directions pinned to Fixed's topology, and each
// non-overlap pair held to the separation Fixed realizes, which leaves no
// binary variable.
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
	// weightGamma weighs the maximum unmatched length (Global form only).
	weightGamma = 0.02
	// weightZeta weighs the total unmatched length (Global form only).
	weightZeta = 0.005
	// weightEta weighs the total overlap slack (Global form only).
	weightEta = 0.01
)

// Config selects the form of the model and how much freedom the instance
// has around the Fixed layout.
type Config struct {
	// DefaultChainPoints, when at least 2 (a single straight segment), is
	// the number of chain points n_i of every free microstrip. Below 2 each
	// free strip keeps the point count of its route in Fixed: the flow
	// resamples a strip's route to the count it wants before building, so
	// the route carries it.
	DefaultChainPoints int

	// FreeDevices and FreeStrips name the objects whose geometry the solver
	// may change; nil names none. Every other object takes its position or
	// route from Fixed and is a constant (an obstacle). Pads are never free:
	// the flow keeps the I/O pads where construction put them.
	FreeDevices []string
	FreeStrips  []string

	// Fixed is the layout the model is built around: positions of the
	// non-free objects, warm-start positions for confinement and pair
	// pruning, and the topology and relative positions of the Global form.
	// Build requires a layout of the circuit it builds for that places every
	// device and routes every microstrip.
	Fixed *layout.Layout

	// Global builds the phase-1 global-adjustment form instead of the exact
	// one. The exact-length equality (Eq. 13) becomes the penalized mismatch
	// bounds of Eq. 24–25; every non-overlap pair gets a penalized slack
	// (Section 5.1 allows residual overlap in phase 1, Figure 9); every free
	// strip's segment directions are pinned to those of its route in Fixed,
	// whose point count must then equal its chain points; and the four-way
	// disjunctive non-overlap constraints (Eq. 16–20) become the single
	// separation that Fixed realizes for each pair. The model then has no
	// binary variable, at the cost of freezing topology and the relative
	// order of objects — exactly the restriction the τd confinement of
	// Sections 5.2–5.3 imposes implicitly.
	Global bool

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
	return len(c.Fixed.Routed(strip).Path.Points)
}

func (c Config) deviceFree(name string) bool {
	return slices.Contains(c.FreeDevices, name)
}

func (c Config) stripFree(name string) bool {
	return slices.Contains(c.FreeStrips, name)
}

// validate checks that the configuration is usable for the circuit.
func (c Config) validate(ckt *netlist.Circuit) error {
	if c.Fixed == nil || c.Fixed.Circuit != ckt || !c.Fixed.Complete() {
		return fmt.Errorf("ilpmodel: Fixed must be a layout of the circuit that places every device and routes every microstrip")
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
