package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromMicronsRoundTrip(t *testing.T) {
	cases := []struct {
		um   float64
		want Coord
	}{
		{0, 0},
		{1, 1000},
		{0.5, 500},
		{890, 890000},
		{615, 615000},
		{0.0004, 0},
		{0.0006, 1},
		{-2.5, -2500},
	}
	for _, c := range cases {
		if got := FromMicrons(c.um); got != c.want {
			t.Errorf("FromMicrons(%v) = %d, want %d", c.um, got, c.want)
		}
	}
	if got := Microns(2500); got != 2.5 {
		t.Errorf("Microns(2500) = %v, want 2.5", got)
	}
}

func TestPointArithmetic(t *testing.T) {
	p := Pt(3, 4)
	q := Pt(-1, 2)
	if got := p.Add(q); !got.Eq(Pt(2, 6)) {
		t.Errorf("Add = %v", got)
	}
	if got := p.Sub(q); !got.Eq(Pt(4, 2)) {
		t.Errorf("Sub = %v", got)
	}
	if got := p.ManhattanTo(q); got != 6 {
		t.Errorf("ManhattanTo = %d, want 6", got)
	}
	if got := p.EuclideanTo(Pt(0, 0)); math.Abs(got-5) > 1e-12 {
		t.Errorf("EuclideanTo = %v, want 5", got)
	}
}

func TestPtMicrons(t *testing.T) {
	p := PtMicrons(1.5, -2)
	if !p.Eq(Pt(1500, -2000)) {
		t.Errorf("PtMicrons = %v", p)
	}
}

func TestCoordHelpers(t *testing.T) {
	if AbsCoord(-7) != 7 || AbsCoord(7) != 7 || AbsCoord(0) != 0 {
		t.Error("AbsCoord wrong")
	}
	if MinCoord(3, 5) != 3 || MinCoord(5, 3) != 3 {
		t.Error("MinCoord wrong")
	}
	if MaxCoord(3, 5) != 5 || MaxCoord(5, 3) != 5 {
		t.Error("MaxCoord wrong")
	}
	if ClampCoord(7, 0, 5) != 5 || ClampCoord(-2, 0, 5) != 0 || ClampCoord(3, 0, 5) != 3 {
		t.Error("ClampCoord wrong")
	}
}

func TestOrientationNormalize(t *testing.T) {
	if Orientation(5).Normalize() != R90 {
		t.Errorf("Normalize(5) = %v", Orientation(5).Normalize())
	}
	if Orientation(-1).Normalize() != R270 {
		t.Errorf("Normalize(-1) = %v", Orientation(-1).Normalize())
	}
}

func TestOrientationSwapsDimensions(t *testing.T) {
	if R0.SwapsDimensions() || R180.SwapsDimensions() {
		t.Error("R0/R180 should not swap dimensions")
	}
	if !R90.SwapsDimensions() || !R270.SwapsDimensions() {
		t.Error("R90/R270 should swap dimensions")
	}
}

func TestRotateOffset(t *testing.T) {
	p := Pt(10, 0)
	if got := R90.RotateOffset(p); !got.Eq(Pt(0, 10)) {
		t.Errorf("R90 rotate = %v", got)
	}
	if got := R180.RotateOffset(p); !got.Eq(Pt(-10, 0)) {
		t.Errorf("R180 rotate = %v", got)
	}
	if got := R270.RotateOffset(p); !got.Eq(Pt(0, -10)) {
		t.Errorf("R270 rotate = %v", got)
	}
	if got := R0.RotateOffset(p); !got.Eq(p) {
		t.Errorf("R0 rotate = %v", got)
	}
}

func TestRotateOffsetComposition(t *testing.T) {
	// Property: rotating twice by R90 equals rotating once by R180.
	f := func(x, y int16) bool {
		p := Pt(Coord(x), Coord(y))
		return R90.RotateOffset(R90.RotateOffset(p)).Eq(R180.RotateOffset(p))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotateOffsetPreservesManhattanNorm(t *testing.T) {
	f := func(x, y int16) bool {
		p := Pt(Coord(x), Coord(y))
		origin := Pt(0, 0)
		n := p.ManhattanTo(origin)
		for _, o := range []Orientation{R0, R90, R180, R270} {
			if o.RotateOffset(p).ManhattanTo(origin) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDirectionAxes(t *testing.T) {
	if !Up.Vertical() || !Down.Vertical() || Up.Horizontal() {
		t.Error("vertical classification wrong")
	}
	if !Left.Horizontal() || !Right.Horizontal() || Left.Vertical() {
		t.Error("horizontal classification wrong")
	}
	if !Up.Perpendicular(Left) || Up.Perpendicular(Down) {
		t.Error("perpendicular classification wrong")
	}
}

func TestDirectionDelta(t *testing.T) {
	for _, d := range Directions {
		delta := d.Delta()
		got, ok := DirectionBetween(Pt(0, 0), delta)
		if !ok || got != d {
			t.Errorf("DirectionBetween(origin, delta(%v)) = %v, %v", d, got, ok)
		}
	}
}

func TestDirectionBetween(t *testing.T) {
	cases := []struct {
		a, b Point
		d    Direction
		ok   bool
	}{
		{Pt(0, 0), Pt(0, 5), Up, true},
		{Pt(0, 0), Pt(0, -5), Down, true},
		{Pt(0, 0), Pt(5, 0), Right, true},
		{Pt(0, 0), Pt(-5, 0), Left, true},
		{Pt(0, 0), Pt(0, 0), Up, false},
		{Pt(0, 0), Pt(3, 3), Up, false},
	}
	for _, c := range cases {
		d, ok := DirectionBetween(c.a, c.b)
		if ok != c.ok || (ok && d != c.d) {
			t.Errorf("DirectionBetween(%v,%v) = %v,%v; want %v,%v", c.a, c.b, d, ok, c.d, c.ok)
		}
	}
}

func TestStringers(t *testing.T) {
	// Smoke tests for String methods; they must not panic and must be
	// non-empty, including for out-of-range values.
	if Pt(1000, 2000).String() == "" {
		t.Error("empty Point string")
	}
	for _, o := range []Orientation{R0, R90, R180, R270, Orientation(9)} {
		if o.String() == "" {
			t.Error("empty Orientation string")
		}
	}
	for _, d := range []Direction{Up, Down, Left, Right, Direction(9)} {
		if d.String() == "" {
			t.Error("empty Direction string")
		}
	}
}
