package layout

import (
	"fmt"

	"rficlayout/internal/geom"
	"rficlayout/internal/netlist"
)

// ViolationKind classifies design-rule violations.
type ViolationKind int

// Violation kinds.
const (
	// Unplaced: a device has no placement.
	Unplaced ViolationKind = iota
	// Unrouted: a microstrip has no route.
	Unrouted
	// OutOfArea: a device body or microstrip body leaves the layout area.
	OutOfArea
	// PadNotOnBoundary: a pad centre is not on the layout area boundary
	// (Eq. 15 requires pads along the boundary).
	PadNotOnBoundary
	// SpacingViolation: two shapes are closer than the 2·t spacing rule.
	SpacingViolation
	// CrossingViolation: two microstrip centrelines intersect, breaking the
	// planar routing requirement.
	CrossingViolation
	// LengthMismatch: a routed microstrip's equivalent length differs from
	// its target length by more than the tolerance (Eq. 13).
	LengthMismatch
	// PinMismatch: a route endpoint does not coincide with the pin it should
	// connect to (Eq. 14).
	PinMismatch
)

// String implements fmt.Stringer.
func (k ViolationKind) String() string {
	switch k {
	case Unplaced:
		return "unplaced-device"
	case Unrouted:
		return "unrouted-strip"
	case OutOfArea:
		return "out-of-area"
	case PadNotOnBoundary:
		return "pad-not-on-boundary"
	case SpacingViolation:
		return "spacing"
	case CrossingViolation:
		return "crossing"
	case LengthMismatch:
		return "length-mismatch"
	case PinMismatch:
		return "pin-mismatch"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Violation is one design-rule violation found by Check.
type Violation struct {
	Kind        ViolationKind
	Subject     string // primary object (device or strip name)
	Other       string // second object for pairwise violations, "" otherwise
	Description string
}

// String implements fmt.Stringer.
func (v Violation) String() string {
	if v.Other != "" {
		return fmt.Sprintf("[%s] %s ↔ %s: %s", v.Kind, v.Subject, v.Other, v.Description)
	}
	return fmt.Sprintf("[%s] %s: %s", v.Kind, v.Subject, v.Description)
}

// CheckOptions tunes the design-rule check.
type CheckOptions struct {
	// LengthTolerance is the allowed |equivalent − target| mismatch. Zero
	// means 10 nm (0.01 µm), which absorbs integer rounding of the solver
	// output while still demanding exact lengths at the precision the paper
	// works with.
	LengthTolerance geom.Coord
	// PinTolerance is the allowed distance between a route endpoint and its
	// pin. Zero means exact coincidence.
	PinTolerance geom.Coord
}

func (o CheckOptions) lengthTol() geom.Coord {
	if o.LengthTolerance > 0 {
		return o.LengthTolerance
	}
	return 10
}

// Shape identifies one rectangle under the spacing rule of Section 2.1: a
// device body or one segment of a microstrip. The design-rule check and the
// non-overlap constraints of the layout model (internal/ilpmodel, Eq. 16–20)
// both decide through SpacingExempt which pairs the rule skips, so the model
// separates exactly the pairs the check measures.
type Shape struct {
	Device *netlist.Device     // the device, for a device body
	Strip  *netlist.Microstrip // the microstrip, for a segment
	Seg    int                 // segment index within Strip, -1 for a device
	Segs   int                 // number of segments of Strip
	// Rect is the unexpanded rectangle the check measures; the model keeps
	// its own variable box and leaves it zero.
	Rect geom.Rect
}

// Name returns the name of the owning device or microstrip.
func (s Shape) Name() string {
	if s.Strip != nil {
		return s.Strip.Name
	}
	return s.Device.Name
}

// SpacingExempt reports whether the spacing rule skips the pair: adjacent
// segments of one microstrip (they share a chain point), end segments of two
// microstrips that meet at the same pin (a T-junction), and a microstrip's
// segments against the devices it terminates on (the strip must reach the
// pin inside the device clearance). Two devices are never exempt.
func SpacingExempt(a, b Shape) bool {
	if a.Strip == nil {
		a, b = b, a
	}
	switch {
	case a.Strip == nil:
		return false
	case b.Strip == nil:
		return a.Strip.From.Device == b.Device.Name || a.Strip.To.Device == b.Device.Name
	case a.Strip.Name == b.Strip.Name:
		return a.Seg-b.Seg <= 1 && b.Seg-a.Seg <= 1
	default:
		return meetAtPin(a, b)
	}
}

// meetAtPin reports whether two segments of different microstrips are end
// segments of both at one terminal pin. It compares the terminals in place,
// because the check and the model ask it for every pair.
func meetAtPin(a, b Shape) bool {
	return a.Seg == 0 && b.endsAt(a.Strip.From) || a.Seg == a.Segs-1 && b.endsAt(a.Strip.To)
}

// endsAt reports whether the segment is an end segment of its microstrip at
// the terminal.
func (s Shape) endsAt(t netlist.Terminal) bool {
	return s.Seg == 0 && s.Strip.From == t || s.Seg == s.Segs-1 && s.Strip.To == t
}

// Check runs the full design-rule check and returns all violations found.
// A complete, correct layout returns an empty slice.
func (l *Layout) Check(opts CheckOptions) []Violation {
	var out []Violation
	area := l.Circuit.Area()
	clearance := l.Circuit.Tech.Clearance()
	delta := l.Circuit.Tech.BendCompensation

	// Completeness.
	for _, d := range l.Circuit.Devices {
		if l.Placed(d.Name) == nil {
			out = append(out, Violation{Kind: Unplaced, Subject: d.Name, Description: "device has no placement"})
		}
	}
	for _, ms := range l.Circuit.Microstrips {
		if l.Routed(ms.Name) == nil {
			out = append(out, Violation{Kind: Unrouted, Subject: ms.Name, Description: "microstrip has no route"})
		}
	}

	// Device-level rules: inside area, pads on the boundary. Pads are exempt
	// from the containment rule because Eq. 15 aligns their centres with the
	// boundary, so half of the pad body intentionally overhangs the area.
	for _, pd := range l.PlacedDevices() {
		body := pd.BodyRect()
		if !pd.Device.IsPad() && !area.ContainsRect(body) {
			out = append(out, Violation{
				Kind: OutOfArea, Subject: pd.Device.Name,
				Description: fmt.Sprintf("body %v leaves area %v", body, area),
			})
		}
		if pd.Device.IsPad() {
			c := pd.Center
			onBoundary := c.X == 0 || c.X == l.Circuit.AreaWidth || c.Y == 0 || c.Y == l.Circuit.AreaHeight
			if !onBoundary {
				out = append(out, Violation{
					Kind: PadNotOnBoundary, Subject: pd.Device.Name,
					Description: fmt.Sprintf("pad centre %v is interior to the layout area", c),
				})
			}
		}
	}

	// Strip-level rules: inside area, endpoints on pins, exact length.
	for _, rs := range l.RoutedStrips() {
		if len(rs.Path.Points) < 2 {
			continue
		}
		// The chain points (centreline) must stay within the layout area; the
		// strip body may overhang by up to half its width where it meets a
		// boundary pad, matching the coordinate bounds of the ILP model.
		for _, p := range rs.Path.Points {
			if !area.ContainsPoint(p) {
				out = append(out, Violation{
					Kind: OutOfArea, Subject: rs.Strip.Name,
					Description: fmt.Sprintf("chain point %v leaves area %v", p, area),
				})
				break
			}
		}
		out = append(out, l.checkEndpoints(rs, opts)...)
		if err := geom.AbsCoord(rs.LengthError(delta)); err > opts.lengthTol() {
			out = append(out, Violation{
				Kind: LengthMismatch, Subject: rs.Strip.Name,
				Description: fmt.Sprintf("equivalent length %.3fµm differs from target %.3fµm by %.3fµm (%d bends)",
					geom.Microns(rs.EquivalentLength(delta)), geom.Microns(rs.Strip.TargetLength),
					geom.Microns(err), rs.Bends()),
			})
		}
	}

	out = append(out, l.checkSpacing(clearance)...)
	out = append(out, l.checkCrossings()...)
	return out
}

// checkEndpoints verifies Eq. 14: each end of a routed strip coincides with
// the pin of the placed device it connects to.
func (l *Layout) checkEndpoints(rs *RoutedStrip, opts CheckOptions) []Violation {
	var out []Violation
	ends := []struct {
		term  netlist.Terminal
		point geom.Point
		label string
	}{
		{rs.Strip.From, rs.Path.Start(), "start"},
		{rs.Strip.To, rs.Path.End(), "end"},
	}
	for _, e := range ends {
		pin, err := l.PinPosition(e.term)
		if err != nil {
			// The unplaced-device violation is already reported.
			continue
		}
		if dist := pin.ManhattanTo(e.point); dist > opts.PinTolerance {
			out = append(out, Violation{
				Kind: PinMismatch, Subject: rs.Strip.Name, Other: e.term.String(),
				Description: fmt.Sprintf("%s point %v is %.3fµm away from pin %v",
					e.label, e.point, geom.Microns(dist), pin),
			})
		}
	}
	return out
}

// collectShapes builds the list of rectangles participating in the spacing
// check.
func (l *Layout) collectShapes() []Shape {
	var shapes []Shape
	for _, pd := range l.PlacedDevices() {
		shapes = append(shapes, Shape{Device: pd.Device, Seg: -1, Rect: pd.BodyRect()})
	}
	for _, rs := range l.RoutedStrips() {
		segs := rs.Path.Segments()
		for i, seg := range segs {
			shapes = append(shapes, Shape{Strip: rs.Strip, Seg: i, Segs: len(segs), Rect: seg.Rect()})
		}
	}
	return shapes
}

// checkSpacing enforces the 2·t spacing rule by expanding every shape by the
// clearance and requiring expanded boxes not to overlap (Section 2.1), except
// for the pairs SpacingExempt skips. Each pair of objects is reported once.
func (l *Layout) checkSpacing(clearance geom.Coord) []Violation {
	shapes := l.collectShapes()
	var out []Violation
	reported := map[[2]string]bool{}
	for i, a := range shapes {
		for _, b := range shapes[i+1:] {
			if SpacingExempt(a, b) || !a.Rect.Expand(clearance).Overlaps(b.Rect.Expand(clearance)) {
				continue
			}
			key := [2]string{a.Name(), b.Name()}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			if reported[key] {
				continue
			}
			reported[key] = true
			out = append(out, Violation{
				Kind: SpacingViolation, Subject: a.Name(), Other: b.Name(),
				Description: fmt.Sprintf("gap %.3fµm < required %.3fµm", geom.Microns(a.Rect.Distance(b.Rect)), geom.Microns(2*clearance)),
			})
		}
	}
	return out
}

// checkCrossings enforces planarity: centrelines of different microstrips
// must not intersect. End segments of two strips that meet at the same pin
// (a T-junction, the junction case of SpacingExempt) may touch there.
func (l *Layout) checkCrossings() []Violation {
	var out []Violation
	strips := l.RoutedStrips()
	segs := make([][]geom.Segment, len(strips))
	for i, rs := range strips {
		segs[i] = rs.Path.Segments()
	}
	for i, a := range strips {
		for j := i + 1; j < len(strips); j++ {
			if crosses(a, segs[i], strips[j], segs[j]) {
				out = append(out, Violation{
					Kind: CrossingViolation, Subject: a.Strip.Name, Other: strips[j].Strip.Name,
					Description: "microstrip centrelines intersect; planar routing is violated",
				})
			}
		}
	}
	return out
}

// crosses reports whether the centrelines of two microstrips, given with
// their segments, intersect anywhere but where end segments of both meet at
// a pin.
func crosses(a *RoutedStrip, segsA []geom.Segment, b *RoutedStrip, segsB []geom.Segment) bool {
	for i, sa := range segsA {
		for j, sb := range segsB {
			if geom.SegmentsIntersect(sa, sb) &&
				!meetAtPin(Shape{Strip: a.Strip, Seg: i, Segs: len(segsA)}, Shape{Strip: b.Strip, Seg: j, Segs: len(segsB)}) {
				return true
			}
		}
	}
	return false
}

// CountViolations returns the number of violations of the given kind.
func CountViolations(vs []Violation, kind ViolationKind) int {
	n := 0
	for _, v := range vs {
		if v.Kind == kind {
			n++
		}
	}
	return n
}
