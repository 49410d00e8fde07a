// Package manual emulates the manual ("simulation-tuning based") layout flow
// that the paper uses as its baseline in Table 1 and Figure 11. A human
// designer first produces a rough planar layout and then matches every
// microstrip to its target length by inserting compact meanders near the
// devices — which is fast to do by hand but leaves many more bends than the
// globally optimized P-ILP result. This package reproduces that behaviour:
// it reuses the constructive placement of the progressive flow and then
// length-matches each strip with a serpentine meander of small pitch instead
// of solving an ILP, yielding layouts whose bend counts are of the same order
// as the paper's "Manual" column.
package manual

import (
	"fmt"

	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
)

// maxMeanderLegs bounds the meander size per strip.
const maxMeanderLegs = 12

// meanderPitch is the spacing between meander legs: 2.5× the spacing rule
// (plus the strip width), the small pitch that gives the dense, bend-heavy
// meanders typical of hand layouts.
func meanderPitch(c *netlist.Circuit) geom.Coord {
	return c.Tech.Spacing()*5/2 + c.Tech.MicrostripWidth
}

// Generate produces the manual-style baseline layout for the circuit.
func Generate(c *netlist.Circuit) (*layout.Layout, error) {
	l, err := pilp.Construct(c)
	if err != nil {
		return nil, err
	}
	delta := c.Tech.BendCompensation
	for _, rs := range l.RoutedStrips() {
		matched := matchWithMeander(rs.Path, rs.Strip.TargetLength, delta, meanderPitch(c), maxMeanderLegs)
		if err := l.Route(rs.Strip.Name, matched...); err != nil {
			return nil, fmt.Errorf("manual: rerouting %s: %w", rs.Strip.Name, err)
		}
	}
	return l, nil
}

// matchWithMeander lengthens a route to its target equivalent length by
// replacing the longest leg with a serpentine meander, the way a designer
// adds "wiggles" near a device. Routes that are already long enough (or
// cannot be matched) are returned unchanged.
func matchWithMeander(path geom.Polyline, target geom.Coord, delta, pitch geom.Coord, maxLegs int) []geom.Point {
	pts := path.Simplify().Points
	if len(pts) < 2 {
		return pts
	}
	current := geom.Polyline{Points: pts, Width: path.Width}
	need := target - (current.Length() + geom.Coord(current.Bends())*delta)
	if need <= 0 {
		return pts
	}

	// Find the longest leg; the meander is inserted there.
	longest := 1
	for i := 2; i < len(pts); i++ {
		if pts[i-1].ManhattanTo(pts[i]) > pts[longest-1].ManhattanTo(pts[longest]) {
			longest = i
		}
	}
	a, b := pts[longest-1], pts[longest]
	dir, ok := geom.DirectionBetween(a, b)
	if !ok {
		return pts
	}
	legLen := a.ManhattanTo(b)

	// Each meander "tooth" adds 2·amplitude of extra geometric length and 4
	// bends (worth 4·δ of equivalent length). Choose the smallest number of
	// teeth whose amplitude stays compact, the way hand meanders look.
	amplitude := pitch * 2
	teeth := int((need + 4*geom.AbsCoord(delta) + 2*amplitude - 1) / (2 * amplitude))
	if teeth < 1 {
		teeth = 1
	}
	if teeth*2 > maxLegs {
		teeth = maxLegs / 2
		if teeth < 1 {
			teeth = 1
		}
	}
	// Re-derive the amplitude so the equivalent length comes out exactly:
	// extra = teeth·2·amplitude + bends·δ with 4 bends per tooth.
	bendComp := geom.Coord(4*teeth) * delta
	amplitude = (need - bendComp) / geom.Coord(2*teeth)
	if amplitude <= 0 {
		return pts
	}
	// The teeth must fit on the leg.
	toothPitch := legLen / geom.Coord(teeth+1)
	if toothPitch < pitch {
		toothPitch = pitch
	}

	perp := geom.Up
	if dir.Vertical() {
		perp = geom.Right
	}
	step := dir.Delta()
	side := perp.Delta()

	meander := []geom.Point{a}
	cur := a
	for tIdx := 0; tIdx < teeth; tIdx++ {
		cur = cur.Add(geom.Pt(step.X*toothPitch, step.Y*toothPitch))
		up := cur.Add(geom.Pt(side.X*amplitude, side.Y*amplitude))
		upOver := up.Add(geom.Pt(step.X*(pitch/2+1), step.Y*(pitch/2+1)))
		back := geom.Pt(upOver.X-side.X*amplitude, upOver.Y-side.Y*amplitude)
		meander = append(meander, cur, up, upOver, back)
		cur = back
	}
	meander = append(meander, b)

	out := append([]geom.Point(nil), pts[:longest]...)
	out = append(out, meander[1:len(meander)-1]...)
	out = append(out, pts[longest:]...)
	return out
}
