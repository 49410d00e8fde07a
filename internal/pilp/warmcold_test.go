package pilp

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rficlayout/internal/circuits"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
)

// minPivotReduction is the floor on cold over warm pivots, summed across
// worker counts, that warm-started dual simplex must keep clearing.
const minPivotReduction = 1.5

// testdataCircuit parses a netlist from the repository's testdata directory.
func testdataCircuit(t *testing.T, name string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// goldenOptions are the options the committed
// testdata/golden/<name>.lpcompare.layout files were produced under: few
// chain points, no refinement and a node budget on every per-strip search,
// so each search stops at a path-independent point long before its
// wall-clock limit.
func goldenOptions() Options {
	return Options{
		ChainPoints:         2,
		MaxChainPoints:      3,
		StripTimeLimit:      30 * time.Second,
		MaxRefineIterations: -1,
		StripNodeLimit:      25,
	}
}

// readGolden returns a committed testdata/golden layout and its path.
func readGolden(t *testing.T, name string) (string, string) {
	t.Helper()
	path := filepath.Join("..", "..", "testdata", "golden", name)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), path
}

// TestWarmColdLayoutIdenticalFlow is the flow-level half of the warm-start
// determinism contract. Each case runs the full three-phase flow cold and
// warm at 1 and 4 workers and requires:
//   - the byte-identical layout from every run: for the testdata fixtures
//     the committed golden, for the in-Go mini circuit the first run's;
//   - the same branch-and-bound node count from every run;
//   - no warm LPs counted by a cold run, and reused bases in every warm run;
//   - at each worker count no more warm pivots than cold, and cold over
//     warm pivots of at least minPivotReduction across both;
//   - Partial unset on every run.
//
// No case may hit a time limit: a binding limit cuts a search at a
// wall-clock-dependent point, the one legitimate source of
// nondeterminism, and would void the comparison. The fixtures bound each
// strip search by a node budget instead; the in-Go mini circuit converges
// inside its limits even with phase-3 refinement on, which makes it the
// slow, long-tier case.
func TestWarmColdLayoutIdenticalFlow(t *testing.T) {
	cases := []struct {
		name    string
		circuit func(*testing.T) *netlist.Circuit
		opts    Options
		golden  string // file under testdata/golden; "" compares the runs with the first
		long    bool   // skipped in -short mode
	}{
		{
			name:    "mini.rfic",
			circuit: func(t *testing.T) *netlist.Circuit { return testdataCircuit(t, "mini.rfic") },
			opts:    goldenOptions(),
			golden:  "mini.lpcompare.layout",
		},
		{
			name:    "twostage.rfic",
			circuit: func(t *testing.T) *netlist.Circuit { return testdataCircuit(t, "twostage.rfic") },
			opts:    goldenOptions(),
			golden:  "twostage.lpcompare.layout",
		},
		{
			name:    "mini-refine",
			circuit: func(*testing.T) *netlist.Circuit { return miniCircuit() },
			opts:    miniOptions(),
			long:    true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.long && testing.Short() {
				t.Skip("refinement flows in -short mode")
			}
			c := tc.circuit(t)
			want, ref := "", "the first run"
			if tc.golden != "" {
				var path string
				want, path = readGolden(t, tc.golden)
				ref = "golden " + path
			}
			nodes := -1
			solve := func(label string, opts Options) *Result {
				t.Helper()
				res, err := GenerateCtx(context.Background(), c, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := layout.Format(res.Layout); want == "" {
					want = got
				} else if got != want {
					t.Errorf("%s: layout differs from %s", label, ref)
				}
				if nodes < 0 {
					nodes = res.Nodes
				} else if res.Nodes != nodes {
					t.Errorf("%s explored %d nodes, the first run %d: search shape changed", label, res.Nodes, nodes)
				}
				if res.Partial {
					t.Errorf("%s: uncancelled run marked partial", label)
				}
				return res
			}

			var coldPivots, warmPivots int
			for _, workers := range []int{1, 4} {
				opts := tc.opts
				opts.Workers = workers
				opts.ColdLP = true
				cold := solve(fmt.Sprintf("cold-w%d", workers), opts)
				opts.ColdLP = false
				warm := solve(fmt.Sprintf("warm-w%d", workers), opts)

				if cold.LP.WarmHits != 0 || cold.LP.WarmMisses != 0 {
					t.Errorf("cold-w%d counted warm LPs: %+v", workers, cold.LP)
				}
				if warm.LP.WarmHits == 0 {
					t.Errorf("warm-w%d never reused a basis: %+v", workers, warm.LP)
				}
				if warm.LP.Pivots > cold.LP.Pivots {
					t.Errorf("warm-w%d spent %d pivots, cold baseline %d", workers, warm.LP.Pivots, cold.LP.Pivots)
				}
				coldPivots += cold.LP.Pivots
				warmPivots += warm.LP.Pivots
				t.Logf("w%d pivots: cold %d, warm %d, warm hits %d/%d LPs",
					workers, cold.LP.Pivots, warm.LP.Pivots, warm.LP.WarmHits, warm.LP.Solves())
			}
			if red := float64(coldPivots) / float64(warmPivots); red < minPivotReduction {
				t.Errorf("warm-start pivot reduction %.2fx below the %.1fx floor", red, minPivotReduction)
			}
		})
	}
}

// phase1Result is the outcome of adjustPhase1: the layout plus the effort
// of the phase's solves.
type phase1Result struct {
	Layout *layout.Layout
	Effort
}

// adjustPhase1 runs only phase 1 of the flow — constructive placement plus
// the global adjustment — under GenerateCtx's score gate: an adjustment that
// does not improve on the constructed layout is discarded.
func adjustPhase1(ctx context.Context, c *netlist.Circuit, opts Options) (*phase1Result, error) {
	c = netlist.Normalized(c)
	spent := new(tally)
	current, err := Construct(c)
	if err != nil {
		return nil, err
	}
	adjusted, err := globalAdjust(ctx, c, current, opts, spent)
	if err != nil {
		return nil, err
	}
	if Score(adjusted) <= Score(current) {
		current = adjusted
	}
	return &phase1Result{Layout: current, Effort: spent.effort}, nil
}

// TestWarmColdLayoutIdenticalTwostagePhase1 pins the contract on the repo's
// example netlist. The twostage per-strip exact-length solves run to their
// time limit (nondeterministic cut points), so the comparison isolates
// phase 1 — construction plus the global adjustment — which converges well
// inside a generous limit.
func TestWarmColdLayoutIdenticalTwostagePhase1(t *testing.T) {
	c := testdataCircuit(t, "twostage.rfic")
	base := Options{PhaseTimeLimit: 2 * time.Minute}

	warm, err := adjustPhase1(context.Background(), c, base)
	if err != nil {
		t.Fatal(err)
	}
	coldOpts := base
	coldOpts.ColdLP = true
	cold, err := adjustPhase1(context.Background(), c, coldOpts)
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
		res, err := GenerateCtx(context.Background(), c, opts)
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
	// A non-default node-budget path carries the same literal shard text.
	const budgeted = "chain=4 maxchain=8 conf=40000 pair=80000 striplimit=5s phaselimit=30s stripnodes=25 p1nodes=50 refine=0 rot=false shard=0 sharditer=5 shardtol=2000 pivot=dantzig core=sparse coldlp=false"
	if got := (Options{StripNodeLimit: 25, Phase1NodeLimit: 50, MaxRefineIterations: -1}).Fingerprint(); got != budgeted {
		t.Errorf("node-budget fingerprint changed:\n got %q\nwant %q", got, budgeted)
	}
	if cold := (Options{ColdLP: true}).Fingerprint(); cold == want {
		t.Errorf("ColdLP does not change the fingerprint: %q", cold)
	}
}
