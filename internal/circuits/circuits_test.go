package circuits

import (
	"testing"

	"rficlayout/internal/geom"
)

func TestTable1SpecsMatchPaperStatistics(t *testing.T) {
	specs := Table1()
	if len(specs) != 3 {
		t.Fatalf("expected 3 benchmark circuits, got %d", len(specs))
	}
	want := map[string][2]int{
		"lna94":    {25, 34},
		"buffer60": {14, 26},
		"lna60":    {19, 28},
	}
	for _, s := range specs {
		w, ok := want[s.Name]
		if !ok {
			t.Errorf("unexpected spec %q", s.Name)
			continue
		}
		if s.Microstrips != w[0] || s.Devices != w[1] {
			t.Errorf("%s: spec says %d strips / %d devices, paper says %d / %d",
				s.Name, s.Microstrips, s.Devices, w[0], w[1])
		}
	}
}

func TestBuildMatchesSpecCounts(t *testing.T) {
	for _, s := range Table1() {
		cA := Build(s)
		if err := cA.Validate(); err != nil {
			t.Errorf("%s (area A): invalid circuit: %v", s.Name, err)
		}
		if len(cA.Microstrips) != s.Microstrips {
			t.Errorf("%s: %d microstrips, want %d", s.Name, len(cA.Microstrips), s.Microstrips)
		}
		if len(cA.Devices) != s.Devices {
			t.Errorf("%s: %d devices, want %d", s.Name, len(cA.Devices), s.Devices)
		}
		if cA.AreaWidth != geom.FromMicrons(s.AreaAWidth) || cA.AreaHeight != geom.FromMicrons(s.AreaAHeight) {
			t.Errorf("%s: area %v×%v", s.Name, cA.AreaWidth, cA.AreaHeight)
		}
		cB := BuildSmallArea(s)
		if err := cB.Validate(); err != nil {
			t.Errorf("%s (area B): invalid circuit: %v", s.Name, err)
		}
		if cB.AreaWidth != geom.FromMicrons(s.AreaBWidth) || cB.AreaHeight != geom.FromMicrons(s.AreaBHeight) {
			t.Errorf("%s: small area %v×%v", s.Name, cB.AreaWidth, cB.AreaHeight)
		}
		if len(cB.Microstrips) != len(cA.Microstrips) || len(cB.Devices) != len(cA.Devices) {
			t.Errorf("%s: area variants differ in content", s.Name)
		}
	}
}

func TestBuildIsDeterministic(t *testing.T) {
	s, err := BySpecName("lna94")
	if err != nil {
		t.Fatal(err)
	}
	a := Build(s)
	b := Build(s)
	if len(a.Microstrips) != len(b.Microstrips) {
		t.Fatal("non-deterministic strip count")
	}
	for i := range a.Microstrips {
		if a.Microstrips[i].TargetLength != b.Microstrips[i].TargetLength {
			t.Errorf("strip %d target differs between builds", i)
		}
	}
	if _, err := BySpecName("nothere"); err == nil {
		t.Error("unknown spec accepted")
	}
}

// TestLargeSpecBuildsValidCircuit checks that the synthetic large circuit is
// valid and matches its spec counts at every scale.
func TestLargeSpecBuildsValidCircuit(t *testing.T) {
	for _, scale := range []int{1, 2} {
		spec := LargeSpec(scale)
		c := Build(spec)
		if err := c.Validate(); err != nil {
			t.Fatalf("scale %d: invalid circuit: %v", scale, err)
		}
		if len(c.Microstrips) != spec.Microstrips || len(c.Devices) != spec.Devices {
			t.Errorf("scale %d: got %d strips / %d devices, want %d / %d",
				scale, len(c.Microstrips), len(c.Devices), spec.Microstrips, spec.Devices)
		}
	}
}

func TestLargeSpecByName(t *testing.T) {
	s, err := BySpecName("large")
	if err != nil {
		t.Fatal(err)
	}
	if s != LargeSpec(1) {
		t.Errorf("BySpecName(large) = %+v", s)
	}
	s, err = BySpecName("large4")
	if err != nil {
		t.Fatal(err)
	}
	if s != LargeSpec(4) {
		t.Errorf("BySpecName(large4) = %+v", s)
	}
	if s, err := BySpecName("large1"); err != nil || s != LargeSpec(1) {
		t.Errorf("large1 should alias large: %+v, %v", s, err)
	}
	if _, err := BySpecName("large0"); err == nil {
		t.Error("large0 accepted")
	}
	if _, err := BySpecName("large4x"); err == nil {
		t.Error("large4x accepted")
	}
}

func TestTargetLengthsAreRealizable(t *testing.T) {
	for _, s := range Table1() {
		c := Build(s)
		for _, ms := range c.Microstrips {
			um := geom.Microns(ms.TargetLength)
			if um < 40 || um > 400 {
				t.Errorf("%s/%s: target %.1f µm outside the plausible 40–400 µm range", s.Name, ms.Name, um)
			}
		}
	}
}
