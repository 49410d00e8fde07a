package pilp

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"rficlayout/internal/circuits"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
)

// TestWarmColdLayoutIdenticalFlow is the flow-level half of the warm-start
// determinism contract: the full three-phase flow must produce the
// byte-identical layout whether branch-and-bound LPs reuse parent bases or
// solve cold, while the warm run actually reuses bases. The mini circuit is
// the one full-flow input whose solves never hit a time limit (binding
// limits are the one legitimate source of nondeterminism, so they would
// void the comparison).
func TestWarmColdLayoutIdenticalFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("two full flow runs in -short mode")
	}
	c := miniCircuit()

	warm, err := Generate(c, miniOptions())
	if err != nil {
		t.Fatal(err)
	}
	coldOpts := miniOptions()
	coldOpts.ColdLP = true
	cold, err := Generate(c, coldOpts)
	if err != nil {
		t.Fatal(err)
	}

	if layout.Format(warm.Layout) != layout.Format(cold.Layout) {
		t.Error("warm and cold flows produced different layouts")
	}
	if warm.Nodes != cold.Nodes {
		t.Errorf("warm flow explored %d nodes, cold %d — search shape changed", warm.Nodes, cold.Nodes)
	}
	if warm.LP.WarmHits == 0 {
		t.Errorf("warm flow never reused a basis: %+v", warm.LP)
	}
	if cold.LP.WarmHits != 0 || cold.LP.WarmMisses != 0 {
		t.Errorf("cold flow counted warm LPs: %+v", cold.LP)
	}
	if warm.LP.Pivots >= cold.LP.Pivots {
		t.Errorf("warm starts saved no pivots: warm %d, cold %d", warm.LP.Pivots, cold.LP.Pivots)
	}
	t.Logf("mini flow pivots: cold %d, warm %d, warm hits %d/%d LPs",
		cold.LP.Pivots, warm.LP.Pivots, warm.LP.WarmHits, warm.LP.Solves())
}

// TestWarmColdLayoutIdenticalTwostagePhase1 pins the contract on the repo's
// example netlist. The twostage per-strip exact-length solves run to their
// time limit (nondeterministic cut points), so the comparison isolates
// phase 1 — construction plus the global adjustment — which converges well
// inside a generous limit.
func TestWarmColdLayoutIdenticalTwostagePhase1(t *testing.T) {
	c, err := netlist.ParseFile(filepath.Join("..", "..", "testdata", "twostage.rfic"))
	if err != nil {
		t.Fatal(err)
	}
	base := Options{PhaseTimeLimit: 2 * time.Minute}

	warm, err := AdjustPhase1(context.Background(), c, base)
	if err != nil {
		t.Fatal(err)
	}
	coldOpts := base
	coldOpts.ColdLP = true
	cold, err := AdjustPhase1(context.Background(), c, coldOpts)
	if err != nil {
		t.Fatal(err)
	}

	if layout.Format(warm.Layout) != layout.Format(cold.Layout) {
		t.Error("warm and cold phase 1 produced different layouts")
	}
	if warm.Nodes != cold.Nodes {
		t.Errorf("warm phase 1 explored %d nodes, cold %d", warm.Nodes, cold.Nodes)
	}
	if cold.LP.WarmHits != 0 || cold.LP.WarmMisses != 0 {
		t.Errorf("cold phase 1 counted warm LPs: %+v", cold.LP)
	}
	t.Logf("twostage phase-1 pivots: cold %d, warm %d, warm hits %d/%d LPs",
		cold.LP.Pivots, warm.LP.Pivots, warm.LP.WarmHits, warm.LP.Solves())
}

// TestWarmColdLayoutIdenticalLargeFlow pins the contract on the large
// synthetic circuit, where the branch-and-bound trees live in the per-strip
// exact-length solves (the phase-1 adjustment solves at an integral root —
// one LP, no tree, so warm starts never engage there). Those strip searches
// do not converge at this scale, so the test bounds each one by a
// deterministic node budget rather than a wall clock: nodes are processed in
// the same order at every worker count, which keeps the cut path-independent
// and the comparison valid. Refinement is skipped for the same reason. The
// test additionally requires the deterministic effort counters to agree
// across worker counts.
func TestWarmColdLayoutIdenticalLargeFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("three node-budgeted large flows in -short mode")
	}
	c := circuits.Build(circuits.LargeSpec(1))
	base := Options{
		ChainPoints:         2,
		MaxChainPoints:      3,
		StripTimeLimit:      5 * time.Minute, // generous: the node budget must bind first
		PhaseTimeLimit:      5 * time.Minute,
		MaxRefineIterations: -1,
		StripNodeLimit:      25,
	}

	type outcome struct {
		text  string
		stats LPStats
		nodes int
	}
	solve := func(cold bool, workers int) outcome {
		opts := base
		opts.ColdLP = cold
		opts.Workers = workers
		res, err := Generate(c, opts)
		if err != nil {
			t.Fatalf("cold=%v workers=%d: %v", cold, workers, err)
		}
		return outcome{text: layout.Format(res.Layout), stats: res.LP, nodes: res.Nodes}
	}

	warm1 := solve(false, 1)
	warm4 := solve(false, 4)
	cold1 := solve(true, 1)

	if warm1.text != warm4.text {
		t.Error("warm flow differs between 1 and 4 workers")
	}
	if warm1.text != cold1.text {
		t.Error("warm and cold flows produced different layouts")
	}
	if warm1.stats != warm4.stats || warm1.nodes != warm4.nodes {
		t.Errorf("warm effort counters differ across workers: %+v/%d vs %+v/%d",
			warm1.stats, warm1.nodes, warm4.stats, warm4.nodes)
	}
	if warm1.stats.WarmHits == 0 {
		t.Errorf("large flow never reused a basis: %+v", warm1.stats)
	}
	if warm1.stats.Pivots >= cold1.stats.Pivots {
		t.Errorf("warm starts saved no pivots on the large circuit: warm %d, cold %d",
			warm1.stats.Pivots, cold1.stats.Pivots)
	}
	t.Logf("large flow pivots: cold %d, warm %d (%.2fx), warm hits %d/%d LPs",
		cold1.stats.Pivots, warm1.stats.Pivots,
		float64(cold1.stats.Pivots)/float64(warm1.stats.Pivots),
		warm1.stats.WarmHits, warm1.stats.Solves())
}

// TestDefaultFingerprintPinned pins the default fingerprint byte for byte.
// Cache keys, on-disk Dir entries and consistent-hash ring ownership all hash
// this string, so any change to it orphans every existing cache entry. The
// warm/cold LP switch must still separate keys.
func TestDefaultFingerprintPinned(t *testing.T) {
	const want = "chain=4 maxchain=8 conf=40000 pair=80000 striplimit=5s phaselimit=30s stripnodes=0 p1nodes=0 refine=3 rot=false shard=0 sharditer=5 shardtol=2000 pivot=dantzig core=sparse coldlp=false"
	if got := (Options{}).Fingerprint(); got != want {
		t.Errorf("default fingerprint changed:\n got %q\nwant %q", got, want)
	}
	if cold := (Options{ColdLP: true}).Fingerprint(); cold == want {
		t.Errorf("ColdLP does not change the fingerprint: %q", cold)
	}
}
