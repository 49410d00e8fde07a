package geom

import "fmt"

// Rect is an axis-aligned rectangle described by its lower-left (Min) and
// upper-right (Max) corners. A Rect is well formed when Min.X <= Max.X and
// Min.Y <= Max.Y; a degenerate rectangle with zero width or height is valid
// and represents a line or a point.
type Rect struct {
	Min, Max Point
}

// R constructs a rectangle from two corner coordinates, normalising the
// corner order so the result is well formed.
func R(x0, y0, x1, y1 Coord) Rect {
	if x0 > x1 {
		x0, x1 = x1, x0
	}
	if y0 > y1 {
		y0, y1 = y1, y0
	}
	return Rect{Min: Point{x0, y0}, Max: Point{x1, y1}}
}

// RectFromCenter builds the rectangle of the given width and height centred
// at c. Odd sizes are rounded so that the rectangle fully covers the size.
func RectFromCenter(c Point, w, h Coord) Rect {
	halfW := w / 2
	halfH := h / 2
	return Rect{
		Min: Point{c.X - halfW, c.Y - halfH},
		Max: Point{c.X - halfW + w, c.Y - halfH + h},
	}
}

// Width returns the horizontal extent.
func (r Rect) Width() Coord { return r.Max.X - r.Min.X }

// Height returns the vertical extent.
func (r Rect) Height() Coord { return r.Max.Y - r.Min.Y }

// Eq reports whether two rectangles are identical.
func (r Rect) Eq(s Rect) bool { return r.Min.Eq(s.Min) && r.Max.Eq(s.Max) }

// Expand grows the rectangle by m on every side. The paper expands bounding
// boxes by the ground-plane distance t on each side to express the 2t
// microstrip spacing rule (Section 2.1, Figure 2a). A negative m shrinks the
// rectangle; the result may become empty but stays well formed.
func (r Rect) Expand(m Coord) Rect {
	out := Rect{
		Min: Point{r.Min.X - m, r.Min.Y - m},
		Max: Point{r.Max.X + m, r.Max.Y + m},
	}
	if out.Max.X < out.Min.X {
		c := (out.Max.X + out.Min.X) / 2
		out.Min.X, out.Max.X = c, c
	}
	if out.Max.Y < out.Min.Y {
		c := (out.Max.Y + out.Min.Y) / 2
		out.Min.Y, out.Max.Y = c, c
	}
	return out
}

// ExpandXY grows the rectangle by mx horizontally and my vertically on each
// side.
func (r Rect) ExpandXY(mx, my Coord) Rect {
	return Rect{
		Min: Point{r.Min.X - mx, r.Min.Y - my},
		Max: Point{r.Max.X + mx, r.Max.Y + my},
	}
}

// ContainsPoint reports whether p lies inside or on the border of r.
func (r Rect) ContainsPoint(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// ContainsRect reports whether s lies entirely inside (or on the border of) r.
func (r Rect) ContainsRect(s Rect) bool {
	return s.Min.X >= r.Min.X && s.Max.X <= r.Max.X &&
		s.Min.Y >= r.Min.Y && s.Max.Y <= r.Max.Y
}

// Union returns the smallest rectangle containing both r and s.
func (r Rect) Union(s Rect) Rect {
	return Rect{
		Min: Point{MinCoord(r.Min.X, s.Min.X), MinCoord(r.Min.Y, s.Min.Y)},
		Max: Point{MaxCoord(r.Max.X, s.Max.X), MaxCoord(r.Max.Y, s.Max.Y)},
	}
}

// Overlaps reports whether r and s share interior area (touching edges do not
// count as overlap, matching the ">= 0 distance" non-overlap rule of Eq.
// 16–20).
func (r Rect) Overlaps(s Rect) bool {
	return r.Min.X < s.Max.X && s.Min.X < r.Max.X &&
		r.Min.Y < s.Max.Y && s.Min.Y < r.Max.Y
}

// Distance returns the minimum axis-separated (Chebyshev-like) gap between
// two rectangles: the larger of the horizontal and vertical gaps, or 0 when
// the rectangles overlap or touch. For the spacing rule of the paper, two
// shapes expanded by t each satisfy the 2t spacing exactly when their
// expanded boxes do not overlap.
func (r Rect) Distance(s Rect) Coord {
	var dx, dy Coord
	if r.Max.X < s.Min.X {
		dx = s.Min.X - r.Max.X
	} else if s.Max.X < r.Min.X {
		dx = r.Min.X - s.Max.X
	}
	if r.Max.Y < s.Min.Y {
		dy = s.Min.Y - r.Max.Y
	} else if s.Max.Y < r.Min.Y {
		dy = r.Min.Y - s.Max.Y
	}
	return MaxCoord(dx, dy)
}

// String implements fmt.Stringer with micrometre formatting.
func (r Rect) String() string {
	return fmt.Sprintf("[%.3f,%.3f → %.3f,%.3f]µm",
		Microns(r.Min.X), Microns(r.Min.Y), Microns(r.Max.X), Microns(r.Max.Y))
}

// BoundingRect returns the smallest rectangle containing all the given
// points. It panics when called with no points.
func BoundingRect(pts ...Point) Rect {
	if len(pts) == 0 {
		panic("geom: BoundingRect requires at least one point")
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = MinCoord(r.Min.X, p.X)
		r.Min.Y = MinCoord(r.Min.Y, p.Y)
		r.Max.X = MaxCoord(r.Max.X, p.X)
		r.Max.Y = MaxCoord(r.Max.Y, p.Y)
	}
	return r
}
