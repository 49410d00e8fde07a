package pilp

import (
	"slices"
	"testing"

	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
)

// TestCandidateGraft checks how phases 2 and 3 merge a candidate solved
// against a frozen base into the evolving layout: only the freed devices and
// strips are copied, base is left untouched, and a nil candidate or one that
// lacks a freed object merges to nil.
func TestCandidateGraft(t *testing.T) {
	c := netlist.Normalized(cascadeCircuit())
	base, err := Construct(c)
	if err != nil {
		t.Fatal(err)
	}
	before := layout.Format(base)

	// solved moves every device and strip of base by the same offset, so
	// any object graft copies differs from base.
	shift := func(p geom.Point) geom.Point {
		return geom.Pt(p.X+geom.FromMicrons(5), p.Y+geom.FromMicrons(5))
	}
	solved := layout.New(c)
	for _, pd := range base.PlacedDevices() {
		if err := solved.Place(pd.Device.Name, shift(pd.Center), pd.Orient); err != nil {
			t.Fatal(err)
		}
	}
	for _, rs := range base.RoutedStrips() {
		pts := make([]geom.Point, len(rs.Path.Points))
		for i, p := range rs.Path.Points {
			pts[i] = shift(p)
		}
		if err := solved.Route(rs.Strip.Name, pts...); err != nil {
			t.Fatal(err)
		}
	}

	merged := (&candidate{layout: solved, strips: []string{"TL2"}, devices: []string{"M1"}}).graft(base)
	if merged == nil {
		t.Fatal("graft of a complete candidate returned nil")
	}
	for _, pd := range merged.PlacedDevices() {
		from := base
		if pd.Device.Name == "M1" {
			from = solved
		}
		if want := from.Placed(pd.Device.Name); pd.Center != want.Center || pd.Orient != want.Orient {
			t.Errorf("device %s at %v/%v, want %v/%v", pd.Device.Name, pd.Center, pd.Orient, want.Center, want.Orient)
		}
	}
	for _, rs := range merged.RoutedStrips() {
		from := base
		if rs.Strip.Name == "TL2" {
			from = solved
		}
		if want := from.Routed(rs.Strip.Name).Path.Points; !slices.Equal(rs.Path.Points, want) {
			t.Errorf("strip %s routed %v, want %v", rs.Strip.Name, rs.Path.Points, want)
		}
	}
	if !merged.Complete() {
		t.Error("merged layout is incomplete")
	}
	if layout.Format(base) != before {
		t.Error("graft changed base")
	}

	if (*candidate)(nil).graft(base) != nil {
		t.Error("nil candidate grafted to a layout")
	}
	// partial holds M1 but no route, so it lacks the freed strip; it lacks
	// the freed device M2 too.
	partial := layout.New(c)
	if err := partial.Place("M1", geom.Pt(0, 0), 0); err != nil {
		t.Fatal(err)
	}
	if (&candidate{layout: partial, strips: []string{"TL2"}, devices: []string{"M1"}}).graft(base) != nil {
		t.Error("candidate without a freed strip grafted to a layout")
	}
	if (&candidate{layout: partial, devices: []string{"M2"}}).graft(base) != nil {
		t.Error("candidate without a freed device grafted to a layout")
	}
	if layout.Format(base) != before {
		t.Error("failed grafts changed base")
	}
}
