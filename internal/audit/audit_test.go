package audit

import (
	"context"
	"strings"
	"testing"

	"rficlayout/internal/circuits/fuzz"
	"rficlayout/internal/netlist"
)

// TestTransformsPreserveValidity: every metamorphic transform of a valid
// circuit must itself validate — otherwise a check failure could be an
// artifact of the transform, not of the solver.
func TestTransformsPreserveValidity(t *testing.T) {
	for seed := int64(0); seed < fuzz.ProfilePeriod; seed += 7 {
		c, _ := fuzz.Generate(seed)
		shuffled := reordered(c)
		if err := shuffled.Validate(); err != nil {
			t.Errorf("seed %d: reordered circuit invalid: %v", seed, err)
		}
		if netlist.Canonical(shuffled) != netlist.Canonical(c) {
			t.Errorf("seed %d: reorder changed canonical text", seed)
		}
		rc, mapping := renamed(c)
		if err := rc.Validate(); err != nil {
			t.Errorf("seed %d: renamed circuit invalid: %v", seed, err)
		}
		if len(mapping) != len(c.Devices)+len(c.Microstrips) {
			t.Errorf("seed %d: rename mapping covers %d of %d objects",
				seed, len(mapping), len(c.Devices)+len(c.Microstrips))
		}
		if err := rescaled(c, 2).Validate(); err != nil {
			t.Errorf("seed %d: rescaled circuit invalid: %v", seed, err)
		}
		if err := mirroredX(c).Validate(); err != nil {
			t.Errorf("seed %d: mirrored circuit invalid: %v", seed, err)
		}
		if err := rotated90(c).Validate(); err != nil {
			t.Errorf("seed %d: rotated circuit invalid: %v", seed, err)
		}
	}
}

// TestRotateFourTimesIsIdentity: the quarter-turn transform composed with
// itself four times must restore the byte-identical canonical netlist — the
// exactness half of the rotate check, asserted directly over many seeds.
func TestRotateFourTimesIsIdentity(t *testing.T) {
	for seed := int64(0); seed < fuzz.ProfilePeriod; seed += 5 {
		c, _ := fuzz.Generate(seed)
		r4 := rotated90(rotated90(rotated90(rotated90(c))))
		if netlist.Canonical(r4) != netlist.Canonical(c) {
			t.Errorf("seed %d: four rotations changed the canonical netlist", seed)
		}
		// A single rotation of a non-square circuit must NOT be the identity;
		// a transform that does nothing would make the check vacuous.
		if c.AreaWidth != c.AreaHeight && netlist.Canonical(rotated90(c)) == netlist.Canonical(c) {
			t.Errorf("seed %d: one rotation left the canonical netlist unchanged", seed)
		}
	}
}

// TestRenamePreservesOrder: the rename mapping must preserve lexicographic
// order, the property that keeps the solver's name-ordered tie-breaks firing
// identically.
func TestRenamePreservesOrder(t *testing.T) {
	m := orderPreservingNames([]string{"M2", "M10", "M1", "XCORE"}, "D")
	// Sorted input order: M1 < M10 < M2 < XCORE.
	want := map[string]string{"M1": "D0000", "M10": "D0001", "M2": "D0002", "XCORE": "D0003"}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("orderPreservingNames[%s] = %s, want %s", k, m[k], v)
		}
	}
}

// TestBatteryPasses: the full battery must pass on generated circuits — the
// exact property TestSweep asserts over contiguous seed blocks at larger
// counts.
func TestBatteryPasses(t *testing.T) {
	if testing.Short() {
		t.Skip("battery runs the full flow several times per circuit")
	}
	for _, seed := range []int64{3, 31} {
		c, p := fuzz.Generate(seed)
		rep, err := Run(context.Background(), c, Options{Solve: DefaultSolveOptions(15)})
		if err != nil {
			t.Fatalf("seed %d (%+v): %v", seed, p, err)
		}
		for _, f := range rep.Failed() {
			t.Errorf("seed %d (%+v): check %s failed: %s", seed, p, f.Name, f.Detail)
		}
		if rep.Nodes < 0 {
			t.Errorf("seed %d: negative node total", seed)
		}
	}
}

// TestRunSubsetAndUnknownCheck: Checks selects a subset; an unknown name is
// an error, not a silent skip, and it comes back before the base solve — so
// even an already-cancelled context reports the name, not the cancellation.
func TestRunSubsetAndUnknownCheck(t *testing.T) {
	c, _ := fuzz.Generate(5)
	rep, err := Run(context.Background(), c, Options{
		Solve:  DefaultSolveOptions(10),
		Checks: []string{CheckReorder},
	})
	if err != nil {
		t.Fatalf("subset run: %v", err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != CheckReorder {
		t.Fatalf("subset run results = %+v, want one %s result", rep.Results, CheckReorder)
	}
	if _, err := Run(context.Background(), c, Options{
		Solve:  DefaultSolveOptions(10),
		Checks: []string{"no-such-check"},
	}); err == nil || !strings.Contains(err.Error(), "unknown check") {
		t.Fatalf("unknown check error = %v, want unknown-check error", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, c, Options{
		Solve:  DefaultSolveOptions(10),
		Checks: []string{CheckReorder, "no-such-check"},
	}); err == nil || !strings.Contains(err.Error(), "unknown check") {
		t.Fatalf("unknown check under a cancelled context: error = %v, want unknown-check error", err)
	}
}

// TestRunCancelled: a cancelled context must surface as an error, never as a
// bogus failing report.
func TestRunCancelled(t *testing.T) {
	c, _ := fuzz.Generate(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if rep, err := Run(ctx, c, Options{Solve: DefaultSolveOptions(10)}); err == nil {
		t.Fatalf("cancelled run returned report %+v with nil error", rep)
	}
}
