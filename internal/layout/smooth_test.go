package layout

import (
	"math"
	"testing"
	"testing/quick"

	"rficlayout/internal/geom"
)

// euclideanLength returns the length of a smoothed point path.
func euclideanLength(pts []geom.Point) float64 {
	total := 0.0
	for i := 1; i < len(pts); i++ {
		total += pts[i-1].EuclideanTo(pts[i])
	}
	return total
}

func TestSmoothPolylineStraight(t *testing.T) {
	pl := geom.MustPolyline(10, geom.Pt(0, 0), geom.Pt(100, 0))
	pts := SmoothPolyline(pl, 15)
	if len(pts) != 2 || !pts[0].Eq(geom.Pt(0, 0)) || !pts[1].Eq(geom.Pt(100, 0)) {
		t.Errorf("straight line altered: %v", pts)
	}
}

func TestSmoothPolylineLShape(t *testing.T) {
	pl := geom.MustPolyline(10, geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 80))
	pts := SmoothPolyline(pl, 15)
	// The corner (100, 0) is replaced by (85, 0) and (100, 15).
	want := []geom.Point{geom.Pt(0, 0), geom.Pt(85, 0), geom.Pt(100, 15), geom.Pt(100, 80)}
	if len(pts) != len(want) {
		t.Fatalf("points = %v", pts)
	}
	for i := range want {
		if !pts[i].Eq(want[i]) {
			t.Errorf("point %d = %v, want %v", i, pts[i], want[i])
		}
	}
	// The smoothed path is shorter than the rectilinear one (diagonal cut).
	if euclideanLength(pts) >= float64(pl.Length()) {
		t.Error("smoothing did not shorten the path")
	}
}

func TestSmoothPolylineCutClamping(t *testing.T) {
	// Legs of 20 and 300: the cut is clamped to half the short leg (10).
	pl := geom.MustPolyline(10, geom.Pt(0, 0), geom.Pt(20, 0), geom.Pt(20, 300))
	pts := SmoothPolyline(pl, 50)
	if len(pts) != 4 {
		t.Fatalf("points = %v", pts)
	}
	if !pts[1].Eq(geom.Pt(10, 0)) || !pts[2].Eq(geom.Pt(20, 50)) {
		// cut clamped to min(20/2, 300/2) = 10 on the incoming leg and the
		// same 10 on the outgoing leg.
		if !pts[2].Eq(geom.Pt(20, 10)) {
			t.Errorf("clamped corner = %v %v", pts[1], pts[2])
		}
	}
}

func TestSmoothPolylineZeroCut(t *testing.T) {
	pl := geom.MustPolyline(10, geom.Pt(0, 0), geom.Pt(100, 0), geom.Pt(100, 80))
	pts := SmoothPolyline(pl, 0)
	if len(pts) != 3 {
		t.Errorf("zero cut should keep the corner: %v", pts)
	}
}

func TestSmoothPolylinePreservesEndpointsProperty(t *testing.T) {
	f := func(seed []uint8) bool {
		pts := []geom.Point{geom.Pt(0, 0)}
		cur := geom.Pt(0, 0)
		for i, s := range seed {
			if i > 12 {
				break
			}
			d := geom.Directions[int(s)%geom.NumDirections]
			step := geom.Coord(int(s)%5+1) * 20
			delta := d.Delta()
			cur = cur.Add(geom.Pt(delta.X*step, delta.Y*step))
			pts = append(pts, cur)
		}
		pl := geom.Polyline{Points: pts, Width: 10}
		sm := SmoothPolyline(pl, 15)
		if len(sm) == 0 {
			return false
		}
		if !sm[0].Eq(pts[0]) || !sm[len(sm)-1].Eq(pts[len(pts)-1]) {
			return false
		}
		// Smoothing never lengthens the path.
		return euclideanLength(sm) <= float64(pl.Length())+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSmoothedRouteAndDefaultCut(t *testing.T) {
	if DefaultCutLength(10000) != 15000 {
		t.Errorf("DefaultCutLength = %d", DefaultCutLength(10000))
	}
	l := completeLayout(t)
	rs := l.Routed("TLOUT")
	pts := rs.SmoothedRoute()
	if len(pts) != 4 {
		t.Errorf("smoothed TLOUT has %d points", len(pts))
	}
	// The diagonal shortcut across a 15 µm cut replaces 30 µm of path with
	// 15·√2 ≈ 21.2 µm.
	wantReduction := 2*15000.0 - 15000*math.Sqrt2
	got := float64(rs.GeometricLength()) - euclideanLength(pts)
	if math.Abs(got-wantReduction) > 1 {
		t.Errorf("smoothing reduction = %g nm, want %g nm", got, wantReduction)
	}
}
