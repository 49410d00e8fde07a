package ilpmodel

import (
	"context"
	"fmt"
	"math"

	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/milp"
	"rficlayout/internal/netlist"
)

// ExtractLayout converts a solution vector of the MILP into a concrete
// layout: device centres and orientations, and the chain-point routes of all
// free microstrips (fixed objects keep their positions from the Fixed
// layout). Coordinates are rounded to integer nanometres; routes are rebuilt
// from the solved segment directions and lengths so that they stay exactly
// axis-parallel and anchored on their pins after rounding.
func (m *Model) ExtractLayout(x []float64) (*layout.Layout, error) {
	if x == nil {
		return nil, fmt.Errorf("ilpmodel: cannot extract a layout from an empty solution")
	}
	l := layout.New(m.Circuit)

	// Declaration order, not map order: the first failure is the one
	// reported, so it must not depend on map iteration.
	for _, d := range m.Circuit.Devices {
		dv := m.devices[d.Name]
		center := dv.fixedCenter
		if dv.free {
			center = geom.Pt(roundUm(x[dv.x]), roundUm(x[dv.y]))
		}
		if err := l.Place(d.Name, center, dv.orient); err != nil {
			return nil, err
		}
	}

	for _, ms := range m.Circuit.Microstrips {
		sv := m.strips[ms.Name]
		var pts []geom.Point
		if sv.free {
			var err error
			pts, err = m.reconstructPath(l, sv, x)
			if err != nil {
				return nil, err
			}
		} else {
			pts = append([]geom.Point(nil), sv.fixedPts...)
		}
		if err := l.Route(ms.Name, pts...); err != nil {
			return nil, err
		}
	}
	return l, nil
}

// reconstructPath rebuilds a free strip's chain points from the solved
// segment directions and lengths, anchored exactly on its start terminal and
// with the rounding residual absorbed into the last legs of each axis.
func (m *Model) reconstructPath(l *layout.Layout, sv *stripVars, x []float64) ([]geom.Point, error) {
	start, err := terminalPoint(l, sv.ms.From)
	if err != nil {
		return nil, err
	}
	goal, err := terminalPoint(l, sv.ms.To)
	if err != nil {
		return nil, err
	}

	segs := sv.n - 1
	dirs := make([]geom.Direction, segs)
	lens := make([]geom.Coord, segs)
	for j := 0; j < segs; j++ {
		dirs[j] = m.segmentDirection(sv, x, j)
		lens[j] = roundUm(x[sv.segLen[j]])
	}

	// Signed axis displacement of the solved route.
	var dx, dy geom.Coord
	for j := 0; j < segs; j++ {
		d := dirs[j].Delta()
		dx += d.X * lens[j]
		dy += d.Y * lens[j]
	}
	// Distribute the rounding residual onto the last segment of each axis.
	residX := (goal.X - start.X) - dx
	residY := (goal.Y - start.Y) - dy
	for j := segs - 1; j >= 0 && residX != 0; j-- {
		if dirs[j].Horizontal() {
			lens[j] += residX * geom.Coord(dirs[j].Delta().X)
			if lens[j] < 0 {
				lens[j] = 0
			}
			residX = 0
		}
	}
	for j := segs - 1; j >= 0 && residY != 0; j-- {
		if dirs[j].Vertical() {
			lens[j] += residY * geom.Coord(dirs[j].Delta().Y)
			if lens[j] < 0 {
				lens[j] = 0
			}
			residY = 0
		}
	}

	pts := make([]geom.Point, sv.n)
	pts[0] = start
	for j := 0; j < segs; j++ {
		d := dirs[j].Delta()
		pts[j+1] = pts[j].Add(geom.Pt(d.X*lens[j], d.Y*lens[j]))
	}
	return pts, nil
}

// terminalPoint returns the exact nanometre pin position a strip end must
// attach to.
func terminalPoint(l *layout.Layout, term netlist.Terminal) (geom.Point, error) {
	pd := l.Placed(term.Device)
	if pd == nil {
		return geom.Point{}, fmt.Errorf("ilpmodel: device %q not placed during extraction", term.Device)
	}
	return pd.PinPosition(term.Pin)
}

// segmentDirection reads the direction of segment j of a free strip from the
// solution vector.
func (m *Model) segmentDirection(sv *stripVars, x []float64, j int) geom.Direction {
	if m.Config.Global {
		return sv.fixedDirs[j]
	}
	best := geom.Right
	bestVal := -1.0
	for _, d := range geom.Directions {
		if v := x[sv.dirs[j][d]]; v > bestVal {
			bestVal = v
			best = d
		}
	}
	return best
}

// SolveAndExtractCtx runs branch and bound on the model under a context and
// extracts the incumbent layout when one exists. Cancellation or a deadline
// on the context stops the search and extracts whatever incumbent exists at
// that point.
func (m *Model) SolveAndExtractCtx(ctx context.Context, opts milp.SolveOptions) (*layout.Layout, *milp.Result, error) {
	res, err := m.MILP.SolveCtx(ctx, opts)
	if err != nil {
		return nil, nil, err
	}
	if !res.Status.HasSolution() {
		return nil, res, nil
	}
	l, err := m.ExtractLayout(res.X)
	if err != nil {
		return nil, res, err
	}
	return l, res, nil
}

func roundUm(um float64) geom.Coord {
	return geom.Coord(math.Round(um * 1000))
}
