package geom

import (
	"testing"
	"testing/quick"
)

func TestSegBasics(t *testing.T) {
	s := Seg(Pt(0, 0), Pt(100, 0), 10)
	if !s.Horizontal() || s.Vertical() {
		t.Error("horizontal segment misclassified")
	}
	if s.Length() != 100 {
		t.Errorf("length = %d", s.Length())
	}
	d, ok := s.Direction()
	if !ok || d != Right {
		t.Errorf("direction = %v,%v", d, ok)
	}
	v := Seg(Pt(0, 0), Pt(0, -30), 10)
	if !v.Vertical() || v.Horizontal() {
		t.Error("vertical segment misclassified")
	}
	if d, _ := v.Direction(); d != Down {
		t.Errorf("direction = %v", d)
	}
	if s.String() == "" {
		t.Error("empty segment string")
	}
}

func TestSegPanicsOnDiagonal(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Seg should panic for diagonal endpoints")
		}
	}()
	Seg(Pt(0, 0), Pt(3, 4), 1)
}

func TestSegmentRect(t *testing.T) {
	h := Seg(Pt(0, 0), Pt(100, 0), 10)
	if got := h.Rect(); !got.Eq(R(0, -5, 100, 5)) {
		t.Errorf("horizontal rect = %v", got)
	}
	v := Seg(Pt(10, 10), Pt(10, 50), 8)
	if got := v.Rect(); !got.Eq(R(6, 10, 14, 50)) {
		t.Errorf("vertical rect = %v", got)
	}
	z := Segment{A: Pt(5, 5), B: Pt(5, 5), Width: 4}
	if got := z.Rect(); !got.Eq(R(3, 3, 7, 7)) {
		t.Errorf("zero-length rect = %v", got)
	}
}

func TestSegmentsIntersect(t *testing.T) {
	cross1 := Seg(Pt(0, 5), Pt(10, 5), 1)
	cross2 := Seg(Pt(5, 0), Pt(5, 10), 1)
	if !SegmentsIntersect(cross1, cross2) {
		t.Error("crossing segments not detected")
	}
	par1 := Seg(Pt(0, 0), Pt(10, 0), 1)
	par2 := Seg(Pt(0, 5), Pt(10, 5), 1)
	if SegmentsIntersect(par1, par2) {
		t.Error("parallel separated segments reported intersecting")
	}
	touch1 := Seg(Pt(0, 0), Pt(10, 0), 1)
	touch2 := Seg(Pt(10, 0), Pt(10, 10), 1)
	if !SegmentsIntersect(touch1, touch2) {
		t.Error("touching segments should intersect")
	}
	collinearOverlap1 := Seg(Pt(0, 0), Pt(10, 0), 1)
	collinearOverlap2 := Seg(Pt(5, 0), Pt(15, 0), 1)
	if !SegmentsIntersect(collinearOverlap1, collinearOverlap2) {
		t.Error("collinear overlapping segments should intersect")
	}
	collinearApart := Seg(Pt(0, 0), Pt(4, 0), 1)
	collinearApart2 := Seg(Pt(6, 0), Pt(10, 0), 1)
	if SegmentsIntersect(collinearApart, collinearApart2) {
		t.Error("collinear disjoint segments reported intersecting")
	}
}

func TestSegmentsIntersectSymmetric(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy, dx, dy int8) bool {
		// Build axis-parallel segments by zeroing one delta.
		a := Pt(Coord(ax), Coord(ay))
		b := Pt(Coord(bx), Coord(ay)) // horizontal
		c := Pt(Coord(cx), Coord(cy))
		d := Pt(Coord(cx), Coord(dy)) // vertical
		s1 := Segment{A: a, B: b, Width: 1}
		s2 := Segment{A: c, B: d, Width: 1}
		return SegmentsIntersect(s1, s2) == SegmentsIntersect(s2, s1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewPolylineValidation(t *testing.T) {
	if _, err := NewPolyline(10, Pt(0, 0), Pt(5, 5)); err == nil {
		t.Error("diagonal polyline accepted")
	}
	pl, err := NewPolyline(10, Pt(0, 0), Pt(10, 0), Pt(10, 10))
	if err != nil {
		t.Fatalf("valid polyline rejected: %v", err)
	}
	if len(pl.Points) != 3 {
		t.Errorf("points = %d", len(pl.Points))
	}
}

func TestMustPolylinePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustPolyline should panic on invalid input")
		}
	}()
	MustPolyline(1, Pt(0, 0), Pt(1, 1))
}

func TestPolylineLengthSegmentsBends(t *testing.T) {
	// An L-shape: one bend.
	pl := MustPolyline(10, Pt(0, 0), Pt(100, 0), Pt(100, 50))
	if pl.Length() != 150 {
		t.Errorf("length = %d", pl.Length())
	}
	if got := pl.Bends(); got != 1 {
		t.Errorf("bends = %d, want 1", got)
	}
	if got := len(pl.Segments()); got != 2 {
		t.Errorf("segments = %d", got)
	}

	// A U-shape: two bends.
	u := MustPolyline(10, Pt(0, 0), Pt(0, 50), Pt(80, 50), Pt(80, 0))
	if u.Bends() != 2 {
		t.Errorf("U bends = %d", u.Bends())
	}

	// Straight line with a redundant chain point: no bends.
	straight := MustPolyline(10, Pt(0, 0), Pt(50, 0), Pt(120, 0))
	if straight.Bends() != 0 {
		t.Errorf("straight bends = %d", straight.Bends())
	}

	// Zero-length legs are skipped when counting bends.
	withZero := MustPolyline(10, Pt(0, 0), Pt(50, 0), Pt(50, 0), Pt(120, 0))
	if withZero.Bends() != 0 {
		t.Errorf("zero-leg bends = %d", withZero.Bends())
	}
}

func TestPolylineSimplify(t *testing.T) {
	pl := MustPolyline(10, Pt(0, 0), Pt(50, 0), Pt(50, 0), Pt(120, 0), Pt(120, 40))
	s := pl.Simplify()
	if len(s.Points) != 3 {
		t.Fatalf("simplified points = %v", s.Points)
	}
	if s.Length() != pl.Length() {
		t.Errorf("simplify changed length: %d vs %d", s.Length(), pl.Length())
	}
	if s.Bends() != pl.Bends() {
		t.Errorf("simplify changed bends: %d vs %d", s.Bends(), pl.Bends())
	}
	empty := Polyline{Width: 5}
	if got := empty.Simplify(); len(got.Points) != 0 || got.Width != 5 {
		t.Errorf("empty simplify = %+v", got)
	}
}

func TestPolylineSimplifyProperties(t *testing.T) {
	// Property: Simplify never changes length or bend count, and never has
	// two consecutive collinear legs afterwards.
	f := func(seed []int8) bool {
		pts := []Point{Pt(0, 0)}
		cur := Pt(0, 0)
		for i, s := range seed {
			d := Directions[int(uint8(s))%NumDirections]
			step := Coord(int(uint8(s))%7) * 10 // may be zero
			delta := d.Delta()
			cur = cur.Add(Point{delta.X * step, delta.Y * step})
			pts = append(pts, cur)
			if i > 24 {
				break
			}
		}
		pl := Polyline{Points: pts, Width: 10}
		s := pl.Simplify()
		if s.Length() != pl.Length() || s.Bends() != pl.Bends() {
			return false
		}
		for i := 2; i < len(s.Points); i++ {
			d1, ok1 := DirectionBetween(s.Points[i-2], s.Points[i-1])
			d2, ok2 := DirectionBetween(s.Points[i-1], s.Points[i])
			if !ok1 || !ok2 {
				return false // no zero-length legs may remain
			}
			if d1 == d2 {
				return false // no collinear consecutive legs may remain
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPolylineBoundsStartEnd(t *testing.T) {
	pl := MustPolyline(10, Pt(0, 0), Pt(100, 0), Pt(100, 60))
	b := pl.Bounds()
	if !b.Eq(R(-5, -5, 105, 65)) {
		t.Errorf("bounds = %v", b)
	}
	if !pl.Start().Eq(Pt(0, 0)) || !pl.End().Eq(Pt(100, 60)) {
		t.Error("start/end wrong")
	}
}
