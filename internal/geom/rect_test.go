package geom

import (
	"testing"
	"testing/quick"
)

func TestRNormalizesCorners(t *testing.T) {
	r := R(10, 20, -5, 3)
	if !r.Min.Eq(Pt(-5, 3)) || !r.Max.Eq(Pt(10, 20)) {
		t.Errorf("R did not normalise: %v", r)
	}
}

func TestRectBasicProps(t *testing.T) {
	r := R(0, 0, 10, 4)
	if r.Width() != 10 || r.Height() != 4 {
		t.Errorf("dims = %d x %d", r.Width(), r.Height())
	}
}

func TestRectFromCenter(t *testing.T) {
	r := RectFromCenter(Pt(100, 100), 20, 10)
	if r.Width() != 20 || r.Height() != 10 {
		t.Errorf("dims = %d x %d", r.Width(), r.Height())
	}
	if !r.Eq(R(90, 95, 110, 105)) {
		t.Errorf("rect = %v", r)
	}
	// Odd dimensions still produce the requested size.
	r = RectFromCenter(Pt(0, 0), 7, 3)
	if r.Width() != 7 || r.Height() != 3 {
		t.Errorf("odd dims = %d x %d", r.Width(), r.Height())
	}
}

func TestRectExpand(t *testing.T) {
	r := R(10, 10, 20, 20)
	e := r.Expand(5)
	if !e.Eq(R(5, 5, 25, 25)) {
		t.Errorf("expand = %v", e)
	}
	// Shrinking past degeneracy collapses to the centre point.
	if s := R(0, 0, 4, 4).Expand(-10); !s.Eq(R(2, 2, 2, 2)) {
		t.Errorf("over-shrunk rect = %v, want the centre point", s)
	}
	xy := r.ExpandXY(1, 2)
	if !xy.Eq(R(9, 8, 21, 22)) {
		t.Errorf("ExpandXY = %v", xy)
	}
}

func TestRectContains(t *testing.T) {
	r := R(0, 0, 10, 10)
	if !r.ContainsPoint(Pt(0, 0)) || !r.ContainsPoint(Pt(10, 10)) || !r.ContainsPoint(Pt(5, 5)) {
		t.Error("ContainsPoint border/interior failed")
	}
	if r.ContainsPoint(Pt(11, 5)) || r.ContainsPoint(Pt(5, -1)) {
		t.Error("ContainsPoint exterior failed")
	}
	if !r.ContainsRect(R(2, 2, 8, 8)) || !r.ContainsRect(r) {
		t.Error("ContainsRect failed")
	}
	if r.ContainsRect(R(2, 2, 11, 8)) {
		t.Error("ContainsRect accepted protruding rect")
	}
}

func TestRectOverlap(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	c := R(10, 0, 20, 10)  // touches a at x=10
	d := R(20, 20, 30, 30) // disjoint

	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("overlapping rects reported disjoint")
	}
	if a.Overlaps(c) {
		t.Error("touching rects should not count as overlapping")
	}
	if a.Overlaps(d) {
		t.Error("disjoint rects reported overlapping")
	}
}

func TestRectDistance(t *testing.T) {
	a := R(0, 0, 10, 10)
	if got := a.Distance(R(15, 0, 20, 10)); got != 5 {
		t.Errorf("horizontal gap = %d, want 5", got)
	}
	if got := a.Distance(R(0, 17, 10, 20)); got != 7 {
		t.Errorf("vertical gap = %d, want 7", got)
	}
	if got := a.Distance(R(5, 5, 15, 15)); got != 0 {
		t.Errorf("overlapping distance = %d, want 0", got)
	}
	if got := a.Distance(R(13, 14, 20, 20)); got != 4 {
		t.Errorf("diagonal distance = %d, want 4 (max of gaps)", got)
	}
}

func TestSpacingViaExpandedBoxes(t *testing.T) {
	// The paper's rule: expanding each shape by t and requiring non-overlap
	// of the expanded boxes enforces a spacing of 2t between the shapes.
	const tDist = 5000 // 5 µm
	a := R(0, 0, 10000, 10000)
	farEnough := R(20000, 0, 30000, 10000) // gap 10000 = 2t
	tooClose := R(19999, 0, 30000, 10000)  // gap 9999 < 2t
	if a.Expand(tDist).Overlaps(farEnough.Expand(tDist)) {
		t.Error("boxes exactly 2t apart must not violate the expanded-box rule")
	}
	if !a.Expand(tDist).Overlaps(tooClose.Expand(tDist)) {
		t.Error("boxes closer than 2t must violate the expanded-box rule")
	}
}

func TestRectIntersectUnion(t *testing.T) {
	a := R(0, 0, 10, 10)
	b := R(5, 5, 15, 15)
	shared := R(5, 5, 10, 10)
	if !a.Overlaps(b) || !a.ContainsRect(shared) || !b.ContainsRect(shared) {
		t.Errorf("%v and %v should share %v", a, b, shared)
	}
	if got := a.Union(b); !got.Eq(R(0, 0, 15, 15)) {
		t.Errorf("union = %v", got)
	}
	disjoint := R(20, 20, 30, 30)
	if a.Overlaps(disjoint) {
		t.Errorf("%v and %v should not overlap", a, disjoint)
	}
	if got := a.Union(disjoint); !got.Eq(R(0, 0, 30, 30)) {
		t.Errorf("disjoint union = %v", got)
	}
}

func TestBoundingRectAndUnionAll(t *testing.T) {
	r := BoundingRect(Pt(3, 5), Pt(-1, 2), Pt(10, -4))
	if !r.Eq(R(-1, -4, 10, 5)) {
		t.Errorf("BoundingRect = %v", r)
	}
	u := R(0, 0, 1, 1).Union(R(5, 5, 6, 6)).Union(R(-2, 0, 0, 3))
	if !u.Eq(R(-2, 0, 6, 6)) {
		t.Errorf("union of all = %v", u)
	}
}

func TestBoundingRectPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BoundingRect() should panic with no points")
		}
	}()
	BoundingRect()
}

// quickRect builds a well-formed rectangle from arbitrary int16 seeds.
func quickRect(x0, y0, w, h int16) Rect {
	ww := Coord(w)
	hh := Coord(h)
	if ww < 0 {
		ww = -ww
	}
	if hh < 0 {
		hh = -hh
	}
	return R(Coord(x0), Coord(y0), Coord(x0)+ww, Coord(y0)+hh)
}

func TestRectPropertyUnionContainsBoth(t *testing.T) {
	f := func(x0, y0, w0, h0, x1, y1, w1, h1 int16) bool {
		a := quickRect(x0, y0, w0, h0)
		b := quickRect(x1, y1, w1, h1)
		u := a.Union(b)
		return u.ContainsRect(a) && u.ContainsRect(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRectPropertyOverlapIffZeroDistance(t *testing.T) {
	f := func(x0, y0, w0, h0, x1, y1, w1, h1 int16) bool {
		a := quickRect(x0, y0, w0, h0)
		b := quickRect(x1, y1, w1, h1)
		if a.Width() == 0 || a.Height() == 0 || b.Width() == 0 || b.Height() == 0 {
			return true
		}
		if a.Overlaps(b) {
			return a.Distance(b) == 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
