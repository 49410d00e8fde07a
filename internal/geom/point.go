// Package geom provides the fixed-point planar geometry primitives used by
// the RFIC layout generator: points, rectangles, axis-parallel segments,
// intervals, polylines and the bounding-box operations (expansion, overlap
// area, distance) that back the spacing and non-overlap rules of the paper.
//
// All coordinates are integer nanometres (Coord). The paper quotes dimensions
// in micrometres; use FromMicrons / Microns to convert. Integer coordinates
// keep the ILP formulation exact and the design-rule checks free of floating
// point epsilons.
package geom

import (
	"fmt"
	"math"
)

// Coord is a coordinate or length in integer nanometres.
type Coord = int64

// Nanometre scale helpers.
const (
	// Nanometre is the base unit.
	Nanometre Coord = 1
	// Micron is 1000 nanometres.
	Micron Coord = 1000
)

// FromMicrons converts a micrometre value (possibly fractional) to Coord
// nanometres, rounding to the nearest integer.
func FromMicrons(um float64) Coord {
	return Coord(math.Round(um * float64(Micron)))
}

// Microns converts a Coord in nanometres to micrometres.
func Microns(c Coord) float64 {
	return float64(c) / float64(Micron)
}

// Point is a point in the layout plane.
type Point struct {
	X, Y Coord
}

// Pt constructs a Point.
func Pt(x, y Coord) Point { return Point{X: x, Y: y} }

// PtMicrons constructs a Point from micrometre coordinates.
func PtMicrons(x, y float64) Point {
	return Point{X: FromMicrons(x), Y: FromMicrons(y)}
}

// Add returns p translated by q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p minus q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// ManhattanTo returns the L1 distance between p and q.
func (p Point) ManhattanTo(q Point) Coord {
	return AbsCoord(p.X-q.X) + AbsCoord(p.Y-q.Y)
}

// EuclideanTo returns the L2 distance between p and q as a float64.
func (p Point) EuclideanTo(q Point) float64 {
	dx := float64(p.X - q.X)
	dy := float64(p.Y - q.Y)
	return math.Hypot(dx, dy)
}

// Eq reports whether p and q are the same point.
func (p Point) Eq(q Point) bool { return p.X == q.X && p.Y == q.Y }

// String implements fmt.Stringer with micrometre formatting.
func (p Point) String() string {
	return fmt.Sprintf("(%.3f, %.3f)µm", Microns(p.X), Microns(p.Y))
}

// AbsCoord returns the absolute value of a Coord.
func AbsCoord(c Coord) Coord {
	if c < 0 {
		return -c
	}
	return c
}

// MinCoord returns the smaller of a and b.
func MinCoord(a, b Coord) Coord {
	if a < b {
		return a
	}
	return b
}

// MaxCoord returns the larger of a and b.
func MaxCoord(a, b Coord) Coord {
	if a > b {
		return a
	}
	return b
}

// ClampCoord restricts v to the closed interval [lo, hi].
func ClampCoord(v, lo, hi Coord) Coord {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Orientation is a device rotation restricted to multiples of 90 degrees.
type Orientation int

// The four supported orientations. Rotations are counter-clockwise.
const (
	R0 Orientation = iota
	R90
	R180
	R270
)

// NumOrientations is the count of distinct orientations.
const NumOrientations = 4

// String implements fmt.Stringer.
func (o Orientation) String() string {
	switch o {
	case R0:
		return "R0"
	case R90:
		return "R90"
	case R180:
		return "R180"
	case R270:
		return "R270"
	default:
		return fmt.Sprintf("Orientation(%d)", int(o))
	}
}

// Normalize maps any integer orientation onto {R0, R90, R180, R270}.
func (o Orientation) Normalize() Orientation {
	n := int(o) % NumOrientations
	if n < 0 {
		n += NumOrientations
	}
	return Orientation(n)
}

// SwapsDimensions reports whether the rotation exchanges width and height.
func (o Orientation) SwapsDimensions() bool {
	n := o.Normalize()
	return n == R90 || n == R270
}

// RotateOffset rotates a pin offset (relative to a device centre) by the
// orientation. The device centre is the rotation pivot.
func (o Orientation) RotateOffset(p Point) Point {
	switch o.Normalize() {
	case R90:
		return Point{X: -p.Y, Y: p.X}
	case R180:
		return Point{X: -p.X, Y: -p.Y}
	case R270:
		return Point{X: p.Y, Y: -p.X}
	default:
		return p
	}
}

// Direction is one of the four axis-parallel routing directions used for the
// chain-point direction variables of the ILP model (Figure 4 of the paper).
type Direction int

// The four routing directions.
const (
	Up Direction = iota
	Down
	Left
	Right
)

// NumDirections is the count of routing directions.
const NumDirections = 4

// Directions lists all directions in a stable order.
var Directions = [NumDirections]Direction{Up, Down, Left, Right}

// String implements fmt.Stringer.
func (d Direction) String() string {
	switch d {
	case Up:
		return "up"
	case Down:
		return "down"
	case Left:
		return "left"
	case Right:
		return "right"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Horizontal reports whether the direction is Left or Right.
func (d Direction) Horizontal() bool { return d == Left || d == Right }

// Vertical reports whether the direction is Up or Down.
func (d Direction) Vertical() bool { return d == Up || d == Down }

// Perpendicular reports whether d and e form a 90° bend.
func (d Direction) Perpendicular(e Direction) bool {
	return d.Horizontal() != e.Horizontal()
}

// Delta returns the unit step of the direction.
func (d Direction) Delta() Point {
	switch d {
	case Up:
		return Point{0, 1}
	case Down:
		return Point{0, -1}
	case Left:
		return Point{-1, 0}
	case Right:
		return Point{1, 0}
	default:
		return Point{}
	}
}

// DirectionBetween returns the axis-parallel direction from a to b and true
// when the two points differ along exactly one axis; otherwise it returns
// false (coincident or diagonal points have no single direction).
func DirectionBetween(a, b Point) (Direction, bool) {
	dx := b.X - a.X
	dy := b.Y - a.Y
	switch {
	case dx == 0 && dy > 0:
		return Up, true
	case dx == 0 && dy < 0:
		return Down, true
	case dy == 0 && dx > 0:
		return Right, true
	case dy == 0 && dx < 0:
		return Left, true
	default:
		return Up, false
	}
}
