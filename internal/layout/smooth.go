package layout

import (
	"rficlayout/internal/geom"
)

// SmoothPolyline replaces every 90° corner of an axis-parallel polyline with
// a 45° diagonal shortcut of the given cut length (Figure 3 of the paper:
// bend smoothing for discontinuity reduction). The cut length is clamped to
// half of the shorter adjacent leg so the shortcut never consumes a whole
// segment. The returned point list is no longer axis-parallel.
func SmoothPolyline(pl geom.Polyline, cut geom.Coord) []geom.Point {
	pts := pl.Simplify().Points
	if len(pts) <= 2 || cut <= 0 {
		out := make([]geom.Point, len(pts))
		copy(out, pts)
		return out
	}
	out := []geom.Point{pts[0]}
	for i := 1; i < len(pts)-1; i++ {
		prev, cur, next := pts[i-1], pts[i], pts[i+1]
		dIn, okIn := geom.DirectionBetween(prev, cur)
		dOut, okOut := geom.DirectionBetween(cur, next)
		if !okIn || !okOut || !dIn.Perpendicular(dOut) {
			out = append(out, cur)
			continue
		}
		c := cut
		if inLen := prev.ManhattanTo(cur) / 2; c > inLen {
			c = inLen
		}
		if outLen := cur.ManhattanTo(next) / 2; c > outLen {
			c = outLen
		}
		if c <= 0 {
			out = append(out, cur)
			continue
		}
		inDelta := dIn.Delta()
		outDelta := dOut.Delta()
		before := cur.Sub(geom.Pt(inDelta.X*c, inDelta.Y*c))
		after := cur.Add(geom.Pt(outDelta.X*c, outDelta.Y*c))
		out = append(out, before, after)
	}
	out = append(out, pts[len(pts)-1])
	return out
}

// DefaultCutLength returns the bend-smoothing cut length used for export and
// RF simulation: 1.5× the strip width, the geometry for which the default
// equivalent-length compensation δ was characterized.
func DefaultCutLength(stripWidth geom.Coord) geom.Coord {
	return stripWidth + stripWidth/2
}

// SmoothedRoute returns the smoothed centreline of a routed strip using the
// default cut length for its width.
func (rs *RoutedStrip) SmoothedRoute() []geom.Point {
	return SmoothPolyline(rs.Path, DefaultCutLength(rs.Path.Width))
}
