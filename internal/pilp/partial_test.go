package pilp

import (
	"context"
	"strings"
	"sync"
	"testing"

	"rficlayout/internal/layout"
)

// cancelOn returns a Logf hook that cancels the context the first time a
// progress message contains marker — a deterministic cancellation point, as
// opposed to a tiny deadline that fires at a wall-clock-dependent place.
func cancelOn(marker string, cancel context.CancelFunc) func(string, ...interface{}) {
	var once sync.Once
	return func(format string, args ...interface{}) {
		if strings.Contains(format, marker) {
			once.Do(cancel)
		}
	}
}

// TestGenerateCtxPartialAfterConstruct cancels right after construction:
// with AcceptPartial the flow returns the constructed layout marked partial
// instead of the context error.
func TestGenerateCtxPartialAfterConstruct(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := fastOptions()
	opts.AcceptPartial = true
	opts.Logf = cancelOn("constructed initial layout", cancel)

	res, err := GenerateCtx(ctx, cascadeCircuit(), opts)
	if err != nil {
		t.Fatalf("AcceptPartial flow returned error: %v", err)
	}
	if !res.Partial {
		t.Fatal("cancelled flow not marked partial")
	}
	if res.PartialPhase != "construct" {
		t.Errorf("PartialPhase = %q, want construct", res.PartialPhase)
	}
	if res.Layout == nil || !res.Layout.Complete() {
		t.Error("partial result does not carry a complete constructed layout")
	}
	if len(res.Snapshots) == 0 || res.Snapshots[len(res.Snapshots)-1].Phase != "construct" {
		t.Errorf("snapshots do not end at construct: %+v", res.Snapshots)
	}
}

// TestGenerateCtxPartialMidFlow cancels after phase 1: the partial result
// holds the phase-1 layout and the cancelled MILP solves show up in the
// interruption stats.
func TestGenerateCtxPartialMidFlow(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := fastOptions()
	opts.AcceptPartial = true
	opts.Logf = cancelOn("phase 1 done", cancel)

	res, err := GenerateCtx(ctx, cascadeCircuit(), opts)
	if err != nil {
		t.Fatalf("AcceptPartial flow returned error: %v", err)
	}
	if !res.Partial || res.PartialPhase != "phase1-blurred-routing" {
		t.Fatalf("partial=%v phase=%q, want partial at phase1-blurred-routing", res.Partial, res.PartialPhase)
	}
	if res.Layout == nil {
		t.Fatal("partial result carries no layout")
	}
	if res.MaxGap < 0 {
		t.Errorf("MaxGap = %v, want >= 0", res.MaxGap)
	}
}

// TestGenerateCtxStrictCancellationStillFails pins the pre-existing
// contract: without AcceptPartial the same deterministic cancellation is an
// error.
func TestGenerateCtxStrictCancellationStillFails(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := fastOptions()
	opts.Logf = cancelOn("constructed initial layout", cancel)

	res, err := GenerateCtx(ctx, cascadeCircuit(), opts)
	if err == nil {
		t.Fatalf("strict flow returned %+v, want context error", res)
	}
}

// TestAcceptPartialExcludedFromFingerprint pins the cache-key contract:
// AcceptPartial cannot change a completed layout, and partial results are
// never cached, so the flag must not split the key space.
func TestAcceptPartialExcludedFromFingerprint(t *testing.T) {
	a := fastOptions()
	b := fastOptions()
	b.AcceptPartial = true
	if a.Fingerprint() != b.Fingerprint() {
		t.Errorf("AcceptPartial changed the fingerprint:\n%s\n%s", a.Fingerprint(), b.Fingerprint())
	}
}

// TestAcceptPartialCompletedRunIdentical checks the other half of that
// contract: when nothing cancels, AcceptPartial produces the byte-identical
// result of a plain run, with Partial unset. The plain run is the committed
// golden of each fixture; node budgets, not wall-clock limits, bound every
// search, so the comparison does not depend on where a clock cuts.
func TestAcceptPartialCompletedRunIdentical(t *testing.T) {
	for _, name := range []string{"mini", "twostage"} {
		t.Run(name, func(t *testing.T) {
			want, path := readGolden(t, name+".lpcompare.layout")
			opts := goldenOptions()
			opts.Workers = 4
			opts.AcceptPartial = true
			res, err := Generate(testdataCircuit(t, name+".rfic"), opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Partial {
				t.Fatal("uncancelled AcceptPartial run marked partial")
			}
			if layout.Format(res.Layout) != want {
				t.Errorf("AcceptPartial changed the layout of a completed run: differs from golden %s", path)
			}
		})
	}
}
