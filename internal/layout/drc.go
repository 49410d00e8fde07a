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

// shape is an internal helper: one rectangle participating in spacing checks.
type shape struct {
	name     string // owning object name
	kind     string // "device" or "strip"
	rect     geom.Rect
	stripIdx int // segment index within the strip, -1 for devices
	// terms lists the devices the owning strip terminates on, nil for
	// devices.
	terms []string
	// endTerms lists the terminals (device.pin) this segment is directly
	// adjacent to: the From terminal for the first segment, the To terminal
	// for the last one. Two strips meeting at the same pin (a T-junction)
	// are exempt from spacing/crossing checks between those end segments.
	endTerms []netlist.Terminal
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
func (l *Layout) collectShapes() []shape {
	var shapes []shape
	for _, pd := range l.PlacedDevices() {
		shapes = append(shapes, shape{
			name: pd.Device.Name, kind: "device", rect: pd.BodyRect(), stripIdx: -1,
		})
	}
	for _, rs := range l.RoutedStrips() {
		terms := []string{rs.Strip.From.Device, rs.Strip.To.Device}
		segs := rs.Path.Segments()
		for i, seg := range segs {
			s := shape{
				name: rs.Strip.Name, kind: "strip", rect: seg.Rect(), stripIdx: i, terms: terms,
			}
			if i == 0 {
				s.endTerms = append(s.endTerms, rs.Strip.From)
			}
			if i == len(segs)-1 {
				s.endTerms = append(s.endTerms, rs.Strip.To)
			}
			shapes = append(shapes, s)
		}
	}
	return shapes
}

// shareJunction reports whether two end segments of different strips meet at
// the same terminal pin (a T-junction), which exempts them from the spacing
// and crossing rules between each other.
func shareJunction(a, b shape) bool {
	for _, ta := range a.endTerms {
		for _, tb := range b.endTerms {
			if ta == tb {
				return true
			}
		}
	}
	return false
}

// spacingExempt reports whether the pair of shapes is exempt from the spacing
// rule: segments of the same strip that are adjacent (they share a chain
// point), and a strip's segments against the devices it terminates on (the
// strip must reach the pin inside the device clearance).
func spacingExempt(a, b shape) bool {
	if a.kind == "strip" && b.kind == "strip" && a.name == b.name {
		di := a.stripIdx - b.stripIdx
		if di < 0 {
			di = -di
		}
		return di <= 1
	}
	if a.kind == "strip" && b.kind == "strip" && shareJunction(a, b) {
		return true
	}
	if a.kind == "device" && b.kind == "strip" {
		a, b = b, a
	}
	if a.kind == "strip" && b.kind == "device" {
		for _, t := range a.terms {
			if t == b.name {
				return true
			}
		}
	}
	return false
}

// checkSpacing enforces the 2·t spacing rule by expanding every shape by the
// clearance and requiring expanded boxes not to overlap (Section 2.1).
func (l *Layout) checkSpacing(clearance geom.Coord) []Violation {
	shapes := l.collectShapes()
	var out []Violation
	reported := map[[2]string]bool{}
	for i := 0; i < len(shapes); i++ {
		for j := i + 1; j < len(shapes); j++ {
			a, b := shapes[i], shapes[j]
			if a.name == b.name && a.kind == b.kind && a.kind == "device" {
				continue
			}
			if spacingExempt(a, b) {
				continue
			}
			ra := a.rect.Expand(clearance)
			rb := b.rect.Expand(clearance)
			if !ra.Overlaps(rb) {
				continue
			}
			key := [2]string{a.name, b.name}
			if key[0] > key[1] {
				key[0], key[1] = key[1], key[0]
			}
			if reported[key] {
				continue
			}
			reported[key] = true
			gap := a.rect.Distance(b.rect)
			out = append(out, Violation{
				Kind: SpacingViolation, Subject: a.name, Other: b.name,
				Description: fmt.Sprintf("gap %.3fµm < required %.3fµm", geom.Microns(gap), geom.Microns(2*clearance)),
			})
		}
	}
	return out
}

// checkCrossings enforces planarity: centrelines of different microstrips
// must not intersect. End segments of two strips that meet at the same pin
// (a T-junction) are allowed to touch there.
func (l *Layout) checkCrossings() []Violation {
	var out []Violation
	strips := l.RoutedStrips()
	for i := 0; i < len(strips); i++ {
		segsI := strips[i].Path.Segments()
		for j := i + 1; j < len(strips); j++ {
			segsJ := strips[j].Path.Segments()
			crossed := false
			for si, segI := range segsI {
				for sj, segJ := range segsJ {
					if !geom.SegmentsIntersect(segI, segJ) {
						continue
					}
					if junctionSegments(strips[i], si, len(segsI), strips[j], sj, len(segsJ)) {
						continue
					}
					crossed = true
					break
				}
				if crossed {
					break
				}
			}
			if crossed {
				out = append(out, Violation{
					Kind: CrossingViolation, Subject: strips[i].Strip.Name, Other: strips[j].Strip.Name,
					Description: "microstrip centrelines intersect; planar routing is violated",
				})
			}
		}
	}
	return out
}

// junctionSegments reports whether segment si of strip a and segment sj of
// strip b are both end segments meeting at a shared terminal pin.
func junctionSegments(a *RoutedStrip, si, na int, b *RoutedStrip, sj, nb int) bool {
	var aTerms, bTerms []netlist.Terminal
	if si == 0 {
		aTerms = append(aTerms, a.Strip.From)
	}
	if si == na-1 {
		aTerms = append(aTerms, a.Strip.To)
	}
	if sj == 0 {
		bTerms = append(bTerms, b.Strip.From)
	}
	if sj == nb-1 {
		bTerms = append(bTerms, b.Strip.To)
	}
	for _, ta := range aTerms {
		for _, tb := range bTerms {
			if ta == tb {
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
