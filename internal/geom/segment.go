package geom

import "fmt"

// Segment is an axis-parallel microstrip segment between two chain points.
// The segment carries the strip width so it can be turned into the rectangle
// that the spacing rule operates on.
type Segment struct {
	A, B  Point
	Width Coord
}

// Seg constructs a segment. It panics when the endpoints are neither
// horizontally nor vertically aligned, because microstrip segments are
// axis-parallel by construction (chain-point model, Section 4.1).
func Seg(a, b Point, width Coord) Segment {
	if a.X != b.X && a.Y != b.Y {
		panic(fmt.Sprintf("geom: segment %v-%v is not axis-parallel", a, b))
	}
	return Segment{A: a, B: b, Width: width}
}

// Horizontal reports whether the segment spans along the X axis. A
// zero-length segment reports true for both Horizontal and Vertical.
func (s Segment) Horizontal() bool { return s.A.Y == s.B.Y }

// Vertical reports whether the segment spans along the Y axis.
func (s Segment) Vertical() bool { return s.A.X == s.B.X }

// ZeroLength reports whether both endpoints coincide.
func (s Segment) ZeroLength() bool { return s.A.Eq(s.B) }

// Length returns the Manhattan length of the segment.
func (s Segment) Length() Coord { return s.A.ManhattanTo(s.B) }

// Direction returns the routing direction from A to B; ok is false for a
// zero-length segment.
func (s Segment) Direction() (Direction, bool) { return DirectionBetween(s.A, s.B) }

// Rect returns the body rectangle of the segment: the centreline extruded by
// half the strip width on each side.
func (s Segment) Rect() Rect {
	half := s.Width / 2
	r := R(s.A.X, s.A.Y, s.B.X, s.B.Y)
	if s.Horizontal() && !s.ZeroLength() {
		return r.ExpandXY(0, half)
	}
	if s.Vertical() && !s.ZeroLength() {
		return r.ExpandXY(half, 0)
	}
	// Zero-length segment: a square of the strip width.
	return r.Expand(half)
}

// String implements fmt.Stringer.
func (s Segment) String() string {
	return fmt.Sprintf("seg %v→%v w=%.3fµm", s.A, s.B, Microns(s.Width))
}

// orient returns the orientation of the ordered triple (p, q, r):
// 0 collinear, 1 clockwise, 2 counter-clockwise.
func orient(p, q, r Point) int {
	v := int64(q.Y-p.Y)*int64(r.X-q.X) - int64(q.X-p.X)*int64(r.Y-q.Y)
	switch {
	case v == 0:
		return 0
	case v > 0:
		return 1
	default:
		return 2
	}
}

// onSegment reports whether q lies on segment pr given the three points are
// collinear.
func onSegment(p, q, r Point) bool {
	return q.X <= MaxCoord(p.X, r.X) && q.X >= MinCoord(p.X, r.X) &&
		q.Y <= MaxCoord(p.Y, r.Y) && q.Y >= MinCoord(p.Y, r.Y)
}

// SegmentsIntersect reports whether the centrelines of two segments intersect
// (including touching at endpoints). Planar microstrip routing forbids any
// crossing between different microstrips.
func SegmentsIntersect(a, b Segment) bool {
	p1, q1 := a.A, a.B
	p2, q2 := b.A, b.B
	o1 := orient(p1, q1, p2)
	o2 := orient(p1, q1, q2)
	o3 := orient(p2, q2, p1)
	o4 := orient(p2, q2, q1)
	if o1 != o2 && o3 != o4 {
		return true
	}
	if o1 == 0 && onSegment(p1, p2, q1) {
		return true
	}
	if o2 == 0 && onSegment(p1, q2, q1) {
		return true
	}
	if o3 == 0 && onSegment(p2, p1, q2) {
		return true
	}
	if o4 == 0 && onSegment(p2, q1, q2) {
		return true
	}
	return false
}

// Polyline is an ordered list of chain points describing a routed microstrip
// centreline. Consecutive points must be axis-aligned.
type Polyline struct {
	Points []Point
	Width  Coord
}

// NewPolyline builds a polyline, validating axis alignment of every leg.
func NewPolyline(width Coord, pts ...Point) (Polyline, error) {
	for i := 1; i < len(pts); i++ {
		if pts[i-1].X != pts[i].X && pts[i-1].Y != pts[i].Y {
			return Polyline{}, fmt.Errorf("geom: polyline leg %d (%v→%v) is not axis-parallel", i, pts[i-1], pts[i])
		}
	}
	cp := make([]Point, len(pts))
	copy(cp, pts)
	return Polyline{Points: cp, Width: width}, nil
}

// MustPolyline is like NewPolyline but panics on error; intended for tests
// and constant construction.
func MustPolyline(width Coord, pts ...Point) Polyline {
	pl, err := NewPolyline(width, pts...)
	if err != nil {
		panic(err)
	}
	return pl
}

// Segments returns the non-zero-length segments of the polyline.
func (pl Polyline) Segments() []Segment {
	var segs []Segment
	for i := 1; i < len(pl.Points); i++ {
		a, b := pl.Points[i-1], pl.Points[i]
		if a.Eq(b) {
			continue
		}
		segs = append(segs, Segment{A: a, B: b, Width: pl.Width})
	}
	return segs
}

// Length returns the total Manhattan length of the polyline centreline.
func (pl Polyline) Length() Coord {
	var sum Coord
	for i := 1; i < len(pl.Points); i++ {
		sum += pl.Points[i-1].ManhattanTo(pl.Points[i])
	}
	return sum
}

// Bends returns the number of real 90° bends along the polyline: the number
// of interior chain points where the incoming and outgoing directions are
// perpendicular. Zero-length legs are skipped, matching the paper's rule that
// a chain point where the second segment simply continues the first direction
// forms no bend.
func (pl Polyline) Bends() int {
	bends := 0
	var prev Direction
	hasPrev := false
	for i := 1; i < len(pl.Points); i++ {
		d, ok := DirectionBetween(pl.Points[i-1], pl.Points[i])
		if !ok {
			continue // zero-length leg
		}
		if hasPrev && prev.Perpendicular(d) {
			bends++
		}
		prev, hasPrev = d, true
	}
	return bends
}

// Simplify removes zero-length legs and merges consecutive collinear legs,
// mirroring the chain-point deletion step of the refinement phase.
func (pl Polyline) Simplify() Polyline {
	if len(pl.Points) == 0 {
		return Polyline{Width: pl.Width}
	}
	pts := []Point{pl.Points[0]}
	for i := 1; i < len(pl.Points); i++ {
		p := pl.Points[i]
		if p.Eq(pts[len(pts)-1]) {
			continue
		}
		if len(pts) >= 2 {
			a, b := pts[len(pts)-2], pts[len(pts)-1]
			d1, ok1 := DirectionBetween(a, b)
			d2, ok2 := DirectionBetween(b, p)
			if ok1 && ok2 && d1 == d2 {
				pts[len(pts)-1] = p
				continue
			}
		}
		pts = append(pts, p)
	}
	return Polyline{Points: pts, Width: pl.Width}
}

// Bounds returns the bounding rectangle of the polyline body (centreline
// expanded by half the width). It panics for an empty polyline.
func (pl Polyline) Bounds() Rect {
	if len(pl.Points) == 0 {
		panic("geom: Bounds of empty polyline")
	}
	r := BoundingRect(pl.Points...)
	return r.Expand(pl.Width / 2)
}

// Start returns the first chain point. It panics for an empty polyline.
func (pl Polyline) Start() Point { return pl.Points[0] }

// End returns the last chain point. It panics for an empty polyline.
func (pl Polyline) End() Point { return pl.Points[len(pl.Points)-1] }
