// Command rficbench regenerates the paper's evaluation artifacts: the Table 1
// comparison of manual vs. P-ILP layouts, the Figure 7 phase snapshots (as
// SVG files) and the Figure 11 S-parameter sweeps. The Table 1 circuits are
// independent, so -parallel dispatches them to the batch engine and solves
// them concurrently; with -strip-time generous enough that no per-strip
// solve hits its limit, the layouts are identical to a sequential run
// (binding time limits stop solves at wall-clock-dependent points). Ctrl-C
// cancels cleanly at the next solver boundary.
//
// With -shardguard the harness solves the synthetic large benchmark twice —
// monolithic phase 1 and sharded phase 1 (-shard-size) — reports the phase-1
// wall-clock of both, verifies the sharded run is byte-identical across
// worker counts, and exits non-zero when the sharded layout score regresses
// beyond -shard-tol. CI runs this as the sharding guard.
//
// With -lp-compare the harness runs the pivot-level benchmark
// (internal/lp/benchharness): the circuit named by -lp-circuit (a Table 1
// name, "large"/"largeN", or a .rfic path) is solved with warm-started and
// with cold LP re-solves at each worker count, the per-run simplex counters
// are printed as a table (and recorded via -stats-out), and the run exits
// non-zero when any cell's layout deviates from the rest, when a warm run
// spends more pivots than its cold baseline, or when the warm-start pivot
// reduction falls below -lp-min-speedup. With -lp-golden every cell's layout
// is additionally compared byte-for-byte against a committed golden file.
// CI runs these as the pivot-regression and golden-layout guards.
//
// With -cachebench the harness replays a seeded request mix — repeated
// solves of a small circuit pool, near-duplicate perturbations of pool
// circuits, and occasional novel circuits — through the same tiered cache
// (memory LRU in front of a directory tier) the server uses, then reports
// the hit rate and the wall-clock saved by serving hits from cache. One
// JSONL summary line goes to -stats-out, so CI's perf-trend folds track
// cache effectiveness run over run.
//
// With -fuzz the harness generates -count seeded random circuits starting at
// -seed-base (internal/circuits/fuzz: LNA/mixer/PA topologies across aspect,
// strip-length and symmetry regimes) and runs the metamorphic audit battery
// (internal/audit) on each under the deterministic node budget -budget. One
// JSON line per seed goes to -fuzz-out; the records carry no wall-clock
// fields, so two runs with the same flags are byte-identical — CI diffs them
// as a determinism guard. A failing circuit is greedily minimized while its
// failing checks keep failing and the result written to -fuzz-fixtures as a
// committable .rfic fixture; the run then exits non-zero. CI runs a bounded
// smoke sweep on every PR and a long scheduled sweep nightly.
//
// With -chaos the harness runs the seeded chaos battery: a small circuit set
// is solved fault-free for baseline layouts, then re-solved -chaos-rounds
// times through an in-process server while internal/faultinject injects
// worker-pool and engine panics, admission failures, torn cache writes and
// transient cache read errors on the deterministic schedule derived from
// -fault-seed. The run fails unless the server survives every fault, each
// /healthz counter accounts exactly for the fired faults, and every
// full-quality layout is byte-identical to the fault-free baseline. The
// per-request log (-chaos-out) and the fired-fault schedule
// (-fault-schedule-out) carry no wall-clock fields, so replaying the same
// seed yields byte-identical files — CI runs the battery twice and diffs.
// Independently of -chaos, -faults arms the injection registry for any other
// mode (e.g. -table1 under cache faults).
//
// With -chaos -chaos-nodes 2 the battery grows into a two-node cluster
// (internal/cluster): two in-process servers on a consistent-hash ring, every
// request sent to node a, so remote-owned circuits exercise peer forwarding
// under injected dial/exchange/body-read failures plus torn cache writes on
// either node. The run additionally requires exact reconciliation of the
// forwarded/retried/degraded/audited counters against the fired faults, zero
// cross-replica audit mismatches, zero forwards from node b (loop safety),
// and byte-identical layouts to a fault-free single-node baseline — including
// degraded fallback solves and the clean final round after budgets exhaust.
//
// With -stats-out FILE every solved job appends one JSON line (circuit,
// runtime, branch-and-bound nodes, shard count, simplex counters) to FILE,
// building the perf-trajectory artifact CI archives run over run —
// scripts/perftrend folds those archives into a per-PR report.
//
// Usage:
//
//	rficbench -table1 -parallel 4
//	rficbench -table1 -stats-out solve-stats.jsonl
//	rficbench -figure7 -outdir out/
//	rficbench -figure11a
//	rficbench -figure11b
//	rficbench -shardguard -shard-size 6 -shard-tol 0.1
//	rficbench -lp-compare -lp-circuit large -lp-phase1 -lp-min-speedup 1.5
//	rficbench -lp-compare -lp-circuit mini.rfic -lp-golden testdata/golden/mini.lpcompare.layout
//	rficbench -cachebench -cache-requests 48 -stats-out cache-stats.jsonl
//	rficbench -table1 -cpuprofile cpu.pprof -memprofile mem.pprof
//	rficbench -fuzz -seed-base 1 -count 54 -budget 25 -fuzz-out fuzz.jsonl
//	rficbench -chaos -fault-seed 42 -chaos-out chaos.jsonl -fault-schedule-out schedule.jsonl
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rficlayout/internal/cache"
	"rficlayout/internal/circuits"
	"rficlayout/internal/circuits/fuzz"
	"rficlayout/internal/emsim"
	"rficlayout/internal/engine"
	"rficlayout/internal/faultinject"
	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/lp/benchharness"
	"rficlayout/internal/manual"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
	"rficlayout/internal/report"
)

func main() {
	table1 := flag.Bool("table1", false, "regenerate Table 1")
	figure7 := flag.Bool("figure7", false, "regenerate the Figure 7 phase snapshots (SVG)")
	figure11a := flag.Bool("figure11a", false, "regenerate Figure 11(a): 94 GHz LNA S-parameters")
	figure11b := flag.Bool("figure11b", false, "regenerate Figure 11(b): 60 GHz buffer S-parameters")
	shardGuard := flag.Bool("shardguard", false, "compare monolithic vs sharded phase 1 on the large synthetic circuit; fail on score regression")
	outDir := flag.String("outdir", ".", "directory for SVG output")
	stripTime := flag.Duration("strip-time", 2*time.Second, "time limit per per-strip ILP solve")
	parallel := flag.Int("parallel", 0, "concurrent circuit solves for -table1 (0 = GOMAXPROCS)")
	shardSize := flag.Int("shard-size", 0, "shard the phase-1 global adjustment into device clusters of at most this size (0 = monolithic; -shardguard requires > 0)")
	shardTol := flag.Float64("shard-tol", 0.1, "allowed fractional score regression of the sharded run in -shardguard")
	guardScale := flag.Int("guard-scale", 1, "size multiplier of the synthetic circuit used by -shardguard")
	statsOut := flag.String("stats-out", "", "append one JSON line of solve stats per job to this file")
	lpCompare := flag.Bool("lp-compare", false, "run the pivot-level LP benchmark: warm- vs cold-started LP re-solves x worker counts on one circuit")
	lpCircuit := flag.String("lp-circuit", "large", "circuit for -lp-compare: a Table 1 name, large/largeN, or a .rfic path")
	lpPhase1 := flag.Bool("lp-phase1", false, "restrict -lp-compare to the phase-1 adjustment (faster on big circuits)")
	lpMinSpeedup := flag.Float64("lp-min-speedup", 1.0, "minimum warm-start pivot reduction (cold/warm pivots, summed over worker counts) in -lp-compare")
	lpStripNodes := flag.Int("lp-strip-nodes", 25, "deterministic node budget per per-strip solve in -lp-compare (0 = unlimited); caps searches that would otherwise run into their wall-clock limit at a path-independent point")
	lpGolden := flag.String("lp-golden", "", "golden layout file for -lp-compare; every cell must match it byte-for-byte")
	cacheBench := flag.Bool("cachebench", false, "run the cache hit-rate benchmark: a seeded repeated+perturbed request mix through the tiered result cache")
	cacheRequests := flag.Int("cache-requests", 48, "request count of the -cachebench mix")
	cacheSeed := flag.Int64("cache-seed", 1, "seed of the -cachebench circuit pool and request mix")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after a final GC) to this file on exit")
	fuzzMode := flag.Bool("fuzz", false, "run the seeded circuit fuzzer: generate circuits and run the metamorphic audit battery on each")
	seedBase := flag.Int64("seed-base", 1, "first seed of the -fuzz sweep; seeds run contiguously from here")
	fuzzCount := flag.Int("count", 54, "number of seeds in the -fuzz sweep (54 covers the whole topology matrix once)")
	fuzzBudget := flag.Int("budget", 25, "deterministic branch-and-bound node budget per per-strip solve in -fuzz (phase 1 scales with it); node budgets, not wall clock, so results are byte-reproducible")
	fuzzChecks := flag.String("fuzz-checks", "", "comma-separated subset of audit checks for -fuzz (empty = full battery)")
	fuzzOut := flag.String("fuzz-out", "", "write one deterministic JSON line per fuzzed seed to this file (default stdout)")
	fuzzFixtures := flag.String("fuzz-fixtures", "fuzz-failures", "directory for minimized failing-circuit fixtures from -fuzz (empty disables minimization)")
	chaosMode := flag.Bool("chaos", false, "run the seeded chaos battery: solve through a live server under injected faults, reconcile /healthz against the fault schedule")
	faults := flag.String("faults", "", "fault-injection plan, point=prob[/budget] pairs (see internal/faultinject); -chaos default: "+defaultFaultSpec)
	faultSeed := flag.Int64("fault-seed", 42, "seed of the deterministic fault schedule")
	chaosRounds := flag.Int("chaos-rounds", 8, "solve rounds over the chaos circuit set (enough to exhaust every fault budget and verify healing)")
	chaosNodes := flag.Int("chaos-nodes", 1, "with -chaos: 1 = single-node battery, 2 = two-node cluster battery (peer forwarding faults, degraded fallback, cross-replica audit)")
	chaosOut := flag.String("chaos-out", "", "write one deterministic JSON line per chaos request to this file (default stdout)")
	scheduleOut := flag.String("fault-schedule-out", "", "write the fired-fault schedule JSONL to this file after the chaos run")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// -faults outside -chaos arms the process-global registry for whatever
	// mode runs; -chaos manages its own registry from the same spec.
	if *faults != "" && !*chaosMode {
		plan, err := faultinject.ParsePlan(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rficbench: -faults:", err)
			os.Exit(2)
		}
		faultinject.Enable(faultinject.New(plan, *faultSeed))
		defer faultinject.Disable()
	}

	opts := pilp.Options{StripTimeLimit: *stripTime, MaxRefineIterations: 2, ShardSize: *shardSize}

	prof, err := startProfiler(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench:", err)
		os.Exit(1)
	}

	stats, err := newStatsWriter(*statsOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench:", err)
		prof.Stop()
		os.Exit(1)
	}
	defer stats.Close()
	// os.Exit skips defers, so every early exit below flushes the profiler
	// (and the stats file) explicitly.
	fail := func() {
		stats.Close()
		prof.Stop()
		os.Exit(1)
	}

	if *table1 {
		runTable1(ctx, opts, *parallel, stats)
	}
	if *figure7 {
		runFigure7(ctx, opts, *outDir)
	}
	if *figure11a {
		runFigure11(ctx, "lna94", opts)
	}
	if *figure11b {
		runFigure11(ctx, "buffer60", opts)
	}
	if *shardGuard {
		if !runShardGuard(ctx, opts, *shardSize, *shardTol, *guardScale, stats) {
			fail()
		}
	}
	if *lpCompare {
		cfg := lpCompareConfig{
			circuit: *lpCircuit, phase1Only: *lpPhase1,
			minSpeedup: *lpMinSpeedup, stripNodes: *lpStripNodes, golden: *lpGolden,
		}
		if !runLPCompare(ctx, opts, cfg, stats) {
			fail()
		}
	}
	if *cacheBench {
		if !runCacheBench(ctx, opts, *cacheSeed, *cacheRequests, *lpStripNodes, stats) {
			fail()
		}
	}
	if *fuzzMode {
		if !runFuzz(ctx, *seedBase, *fuzzCount, *fuzzBudget, *fuzzChecks, *fuzzOut, *fuzzFixtures) {
			fail()
		}
	}
	if *chaosMode && *chaosNodes >= 2 {
		if !runChaosCluster(ctx, *faults, *faultSeed, *chaosRounds, *chaosOut, *scheduleOut) {
			fail()
		}
	} else if *chaosMode {
		if !runChaos(ctx, *faults, *faultSeed, *chaosRounds, *chaosOut, *scheduleOut) {
			fail()
		}
	}
	if !*table1 && !*figure7 && !*figure11a && !*figure11b && !*shardGuard && !*lpCompare && !*cacheBench && !*fuzzMode && !*chaosMode {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -table1, -figure7, -figure11a, -figure11b, -shardguard, -lp-compare, -cachebench, -fuzz or -chaos")
		prof.Stop()
		os.Exit(2)
	}
	prof.Stop()
}

// profiler owns the optional runtime/pprof outputs: a CPU profile covering
// the whole run and a heap profile written at exit. Stop is idempotent and
// must run on every exit path — os.Exit skips defers.
type profiler struct {
	cpu     *os.File
	memPath string
	stopped bool
}

func startProfiler(cpuPath, memPath string) (*profiler, error) {
	p := &profiler{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("-cpuprofile: %w", err)
		}
		p.cpu = f
	}
	return p, nil
}

func (p *profiler) Stop() {
	if p == nil || p.stopped {
		return
	}
	p.stopped = true
	if p.cpu != nil {
		pprof.StopCPUProfile()
		_ = p.cpu.Close()
	}
	if p.memPath != "" {
		f, err := os.Create(p.memPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rficbench: -memprofile:", err)
			return
		}
		runtime.GC() // materialize the final live set before snapshotting
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "rficbench: -memprofile:", err)
		}
		_ = f.Close()
	}
}

// loadLPCircuit resolves the -lp-circuit argument: a path to a .rfic netlist
// is parsed from disk, anything else goes through the named-spec registry
// (Table 1 names plus the large synthetics).
func loadLPCircuit(name string) (*netlist.Circuit, error) {
	if strings.HasSuffix(name, ".rfic") {
		return netlist.ParseFile(name)
	}
	spec, err := circuits.BySpecName(name)
	if err != nil {
		return nil, err
	}
	return circuits.Build(spec), nil
}

// lpCompareConfig carries the -lp-* flag values into runLPCompare.
type lpCompareConfig struct {
	circuit    string
	phase1Only bool
	minSpeedup float64 // warm-start pivot-reduction floor
	stripNodes int
	golden     string // golden layout path (empty = cross-cell check only)
}

// runLPCompare runs the pivot-level warm/cold comparison and applies the
// guards: byte-identical layouts across every cell (and, with -lp-golden,
// against the committed golden), no warm cell spending more pivots than its
// cold baseline, and the warm-start reduction meeting the -lp-min-speedup
// floor.
func runLPCompare(ctx context.Context, opts pilp.Options, cfg lpCompareConfig, stats *statsWriter) bool {
	c, err := loadLPCircuit(cfg.circuit)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench: -lp-circuit:", err)
		return false
	}
	var golden string
	if cfg.golden != "" {
		b, err := os.ReadFile(cfg.golden)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rficbench: -lp-golden:", err)
			return false
		}
		golden = string(b)
	}
	// The comparison needs a converging, deterministic branch-and-bound
	// workload, not a production-quality layout: restrict the chain-point
	// growth, skip the phase-3 refinement (whose junction escalations
	// dwarf everything else on big circuits), and cap each per-strip
	// search by node count, so every cell of the matrix finishes well
	// inside its wall-clock limits (a binding time limit cuts the search
	// at a wall-clock-dependent point, which would void the byte-equality
	// guard; a binding node budget cuts it at a path-independent one).
	opts.ChainPoints = 2
	opts.MaxChainPoints = 3
	opts.MaxRefineIterations = -1
	opts.StripNodeLimit = cfg.stripNodes
	fmt.Printf("lp-compare: %s\n", c.Stats())
	rep, err := benchharness.Compare(ctx, benchharness.Config{
		Circuit:    c,
		Options:    opts,
		Phase1Only: cfg.phase1Only,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench:", err)
		return false
	}
	fmt.Print(rep.Table())
	for _, run := range rep.Runs {
		stats.record(solveRecord{
			Circuit: c.Name, Variant: "lp-" + run.Label(),
			RuntimeNS: int64(run.Runtime), Nodes: run.Nodes,
			LPPivots: run.LP.Pivots, LPRefactorizations: run.LP.Refactorizations,
			LPPeakEta:  run.LP.PeakEta,
			LPWarmHits: run.LP.WarmHits, LPWarmMisses: run.LP.WarmMisses,
			LPColdSolves: run.LP.ColdSolves,
		})
	}
	ok := true
	if ms := rep.Mismatches(); len(ms) > 0 {
		for _, m := range ms {
			fmt.Fprintln(os.Stderr, "rficbench: layout mismatch:", m)
		}
		ok = false
	}
	if golden != "" {
		matched := true
		for _, run := range rep.Runs {
			if run.Layout != golden {
				fmt.Fprintf(os.Stderr, "rficbench: %s deviates from golden %s\n", run.Label(), cfg.golden)
				matched = false
			}
		}
		if matched {
			fmt.Printf("lp-compare: all %d cells match golden %s\n", len(rep.Runs), cfg.golden)
		}
		ok = ok && matched
	}
	if regs := rep.Regressions(); len(regs) > 0 {
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "rficbench: pivot regression:", r)
		}
		ok = false
	}
	if red := rep.PivotReduction(); red < cfg.minSpeedup {
		fmt.Fprintf(os.Stderr, "rficbench: warm-start pivot reduction %.2fx below the %.2fx floor\n", red, cfg.minSpeedup)
		ok = false
	}
	if ok {
		fmt.Println("lp-compare: OK")
	}
	return ok
}

// runCacheBench replays a deterministic request mix through the tiered
// result cache and reports its hit rate. The mix models production traffic:
// most requests repeat a circuit from a small hot pool (cache hits after the
// first solve), some are near-duplicate perturbations of a pool circuit (a
// microstrip's target length nudged, so the content address — and therefore
// the cache line — changes), and a few are novel circuits. Solves use the
// same deterministic node budgets as -lp-compare so the benchmark is about
// cache behaviour, not solver wall-clock variance.
func runCacheBench(ctx context.Context, opts pilp.Options, seed int64, requests, stripNodes int, stats *statsWriter) bool {
	opts.ChainPoints = 2
	opts.MaxChainPoints = 3
	opts.MaxRefineIterations = -1
	opts.StripNodeLimit = stripNodes

	dir, err := os.MkdirTemp("", "rficbench-cache-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench: -cachebench:", err)
		return false
	}
	defer os.RemoveAll(dir)
	disk, err := cache.NewDir(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench: -cachebench:", err)
		return false
	}
	// The LRU tier is sized below the pool so the benchmark exercises both
	// tiers: evicted pool circuits come back as disk hits and re-promote.
	const poolSize = 6
	tier := cache.NewTiered(cache.NewLRU(poolSize-2, cache.DefaultMaxBytes), disk)

	type request struct {
		c    *netlist.Circuit
		kind string
	}
	// The whole request sequence is derived up front from the seed, so the
	// mix is reproducible run over run.
	rng := rand.New(rand.NewSource(seed))
	pool := make([]*netlist.Circuit, poolSize)
	for i := range pool {
		pool[i], _ = fuzz.Generate(seed + int64(i))
	}
	novel := 0
	mix := make([]request, requests)
	for i := range mix {
		switch roll := rng.Float64(); {
		case roll < 0.60: // repeat: straight re-request of a pool circuit
			mix[i] = request{pool[rng.Intn(poolSize)], "repeat"}
		case roll < 0.85: // perturbed: pool circuit with one strip length nudged
			k := rng.Intn(poolSize)
			c, _ := fuzz.Generate(seed + int64(k))
			ms := c.Microstrips[rng.Intn(len(c.Microstrips))]
			ms.TargetLength += geom.Micron * geom.Coord(1+rng.Intn(4))
			mix[i] = request{c, "perturbed"}
		default: // novel: a circuit outside the pool entirely
			novel++
			c, _ := fuzz.Generate(seed + 1000 + int64(novel))
			mix[i] = request{c, "novel"}
		}
	}

	fmt.Printf("cachebench: %d requests over a pool of %d circuits (seed %d)\n", requests, poolSize, seed)
	var solved, saved time.Duration
	start := time.Now()
	kinds := map[string]int{}
	for i, req := range mix {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "rficbench: -cachebench: cancelled")
			return false
		}
		kinds[req.kind]++
		key := cache.Key(req.c, opts)
		if e, ok := tier.Get(key); ok {
			saved += e.Runtime
			continue
		}
		res, err := pilp.GenerateCtx(ctx, req.c, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rficbench: -cachebench: request %d (%s): %v\n", i, req.kind, err)
			return false
		}
		solved += res.Runtime
		tier.Put(key, cache.Entry{
			Circuit: req.c.Name,
			Layout:  []byte(layout.Format(res.Layout)),
			Runtime: res.Runtime,
			Nodes:   res.Nodes,
			Shards:  len(res.Shards),
			LP:      res.LP,
		})
	}
	elapsed := time.Since(start)

	st := tier.Stats()
	hitRate := 0.0
	if st.Hits+st.Misses > 0 {
		hitRate = float64(st.Hits) / float64(st.Hits+st.Misses)
	}
	fmt.Printf("cachebench: mix repeat=%d perturbed=%d novel=%d\n", kinds["repeat"], kinds["perturbed"], kinds["novel"])
	fmt.Printf("cachebench: hits %d, misses %d (hit rate %.1f%%), evictions %d\n",
		st.Hits, st.Misses, 100*hitRate, st.Evictions)
	fmt.Printf("cachebench: solving spent %v, cache saved %v (run total %v)\n",
		solved.Round(time.Millisecond), saved.Round(time.Millisecond), elapsed.Round(time.Millisecond))
	stats.record(solveRecord{
		Circuit: "cachebench", Variant: fmt.Sprintf("cachebench-s%d-r%d", seed, requests),
		RuntimeNS: int64(elapsed), Nodes: 0,
		CacheHits: st.Hits, CacheMisses: st.Misses, CacheHitRate: hitRate,
		CacheSavedNS: int64(saved),
	})
	// The guard is intentionally loose — the mix is seeded, so the floor is a
	// sanity check that the cache is wired in at all, not a tuned threshold:
	// every straight repeat after its first solve must hit.
	if st.Hits == 0 && requests > poolSize {
		fmt.Fprintln(os.Stderr, "rficbench: -cachebench: zero cache hits on a repeating mix")
		return false
	}
	fmt.Println("cachebench: OK")
	return true
}

// statsWriter appends one JSON document per line to a file (JSONL), the
// accumulating perf-trajectory format the CI bench artifacts collect. A nil
// receiver (no -stats-out) drops every record.
type statsWriter struct {
	f   *os.File
	enc *json.Encoder
}

// solveRecord is one JSONL line of solve stats. The lp_* fields carry the
// simplex-level effort counters; they are zero (and omitted) for records
// written by modes that predate them.
type solveRecord struct {
	Circuit            string  `json:"circuit"`
	Variant            string  `json:"variant,omitempty"` // e.g. "small-area", "monolithic", "lp-warm-w1"
	RuntimeNS          int64   `json:"runtime_ns"`
	Phase1NS           int64   `json:"phase1_ns,omitempty"`
	Nodes              int     `json:"nodes"`
	Shards             int     `json:"shards"`
	Score              float64 `json:"score"`
	LPPivots           int     `json:"lp_pivots,omitempty"`
	LPRefactorizations int     `json:"lp_refactorizations,omitempty"`
	LPPeakEta          int     `json:"lp_peak_eta,omitempty"`
	LPWarmHits         int     `json:"lp_warm_hits,omitempty"`
	LPWarmMisses       int     `json:"lp_warm_misses,omitempty"`
	LPColdSolves       int     `json:"lp_cold_solves,omitempty"`
	// The cache_* fields carry the -cachebench summary; zero (and omitted)
	// everywhere else.
	CacheHits    int64   `json:"cache_hits,omitempty"`
	CacheMisses  int64   `json:"cache_misses,omitempty"`
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
	CacheSavedNS int64   `json:"cache_saved_ns,omitempty"`
}

func newStatsWriter(path string) (*statsWriter, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("opening -stats-out file: %w", err)
	}
	return &statsWriter{f: f, enc: json.NewEncoder(f)}, nil
}

func (w *statsWriter) record(rec solveRecord) {
	if w == nil {
		return
	}
	_ = w.enc.Encode(rec)
}

func (w *statsWriter) Close() {
	if w != nil && w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
}

// phase1Elapsed reads the wall-clock of phase 1 (construction + global
// adjustment) from the flow's snapshots.
func phase1Elapsed(res *pilp.Result) time.Duration {
	if len(res.Snapshots) == 0 {
		return 0
	}
	return res.Snapshots[0].Elapsed
}

// runShardGuard runs phase 1 (construct + global adjustment) of the
// synthetic large circuit with the monolithic and the sharded solver —
// pilp.AdjustPhase1 isolates exactly the subsystem the sharding refactor
// touches, so the guard stays fast enough for CI — prints the wall-clock
// comparison, and reports whether the sharded run held the quality bar:
// byte-identical layouts across 1 and 4 workers, and a phase-1 score within
// (1+tol)·monolithic plus one bend of absolute slack (so a perfect-score
// baseline does not make every nonzero score a failure).
func runShardGuard(ctx context.Context, opts pilp.Options, shardSize int, tol float64, scale int, stats *statsWriter) bool {
	if shardSize <= 0 {
		fmt.Fprintln(os.Stderr, "rficbench: -shardguard requires -shard-size > 0")
		return false
	}
	c := circuits.Build(circuits.LargeSpec(scale))
	fmt.Printf("shardguard: %s\n", c.Stats())

	mono := opts
	mono.ShardSize = 0
	monoRes, err := pilp.AdjustPhase1(ctx, c, mono)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench: monolithic phase 1:", err)
		return false
	}
	monoScore := pilp.Score(monoRes.Layout)
	stats.record(solveRecord{
		Circuit: c.Name, Variant: "phase1-monolithic",
		RuntimeNS: int64(monoRes.Runtime), Phase1NS: int64(monoRes.Runtime),
		Nodes: monoRes.Nodes, Score: monoScore,
	})

	sharded := opts
	sharded.ShardSize = shardSize
	var layouts [2]string
	var shardRes *pilp.Phase1Result
	for i, workers := range []int{1, 4} {
		run := sharded
		run.Workers = workers
		res, err := pilp.AdjustPhase1(ctx, c, run)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rficbench: sharded phase 1 (workers=%d): %v\n", workers, err)
			return false
		}
		layouts[i] = layout.Format(res.Layout)
		shardRes = res
	}
	if layouts[0] != layouts[1] {
		fmt.Fprintln(os.Stderr, "rficbench: sharded layouts differ between 1 and 4 workers — determinism contract broken")
		return false
	}
	shardScore := pilp.Score(shardRes.Layout)
	stats.record(solveRecord{
		Circuit: c.Name, Variant: "phase1-sharded",
		RuntimeNS: int64(shardRes.Runtime), Phase1NS: int64(shardRes.Runtime),
		Nodes: shardRes.Nodes, Shards: len(shardRes.Shards), Score: shardScore,
	})

	speedup := 0.0
	if shardRes.Runtime > 0 {
		speedup = float64(monoRes.Runtime) / float64(shardRes.Runtime)
	}
	fmt.Printf("shardguard: phase 1 monolithic %v, sharded %v at 4 workers (%d shards, %.2fx)\n",
		monoRes.Runtime.Round(time.Millisecond), shardRes.Runtime.Round(time.Millisecond),
		len(shardRes.Shards), speedup)
	fmt.Printf("shardguard: score monolithic %.1f, sharded %.1f (tolerance %.0f%%)\n",
		monoScore, shardScore, tol*100)
	if len(shardRes.Shards) < 2 {
		fmt.Fprintln(os.Stderr, "rficbench: sharded run did not actually shard")
		return false
	}
	if allowed := monoScore*(1+tol) + 100; shardScore > allowed {
		fmt.Fprintf(os.Stderr, "rficbench: sharded score %.1f exceeds allowed %.1f\n", shardScore, allowed)
		return false
	}
	fmt.Println("shardguard: OK")
	return true
}

func buildCircuit(spec circuits.Spec, small bool) *netlist.Circuit {
	if small {
		return circuits.BuildSmallArea(spec)
	}
	return circuits.Build(spec)
}

func runTable1(ctx context.Context, opts pilp.Options, parallel int, stats *statsWriter) {
	type cell struct {
		spec  circuits.Spec
		small bool
	}
	var cells []cell
	var jobs []engine.Job
	for _, spec := range circuits.Table1() {
		for _, small := range []bool{false, true} {
			cells = append(cells, cell{spec, small})
			jobs = append(jobs, engine.Job{
				Name:    fmt.Sprintf("%s/small=%v", spec.Name, small),
				Circuit: buildCircuit(spec, small),
				Options: opts,
			})
		}
	}
	results := engine.Run(ctx, jobs, engine.Options{Parallel: parallel})

	var rows []report.Table1Row
	for i, cl := range cells {
		c := jobs[i].Circuit
		row := report.Table1Row{
			Circuit:     cl.spec.Name,
			Microstrips: len(c.Microstrips),
			Devices:     len(c.Devices),
			AreaWidth:   c.AreaWidth,
			AreaHeight:  c.AreaHeight,
		}
		if !cl.small {
			start := time.Now()
			ml, err := manual.Generate(c, manual.Options{})
			if err == nil {
				m := ml.Metrics()
				row.ManualAvailable = true
				row.ManualMaxBends = m.MaxBends
				row.ManualTotalBends = m.TotalBends
				row.ManualRuntime = time.Since(start)
			}
		}
		r := results[i]
		if r.Err != nil {
			fmt.Fprintf(os.Stderr, "rficbench: %s: %v\n", r.Name, r.Err)
			continue
		}
		variant := ""
		if cl.small {
			variant = "small-area"
		}
		stats.record(solveRecord{
			Circuit: cl.spec.Name, Variant: variant,
			RuntimeNS: int64(r.Result.Runtime), Phase1NS: int64(phase1Elapsed(r.Result)),
			Nodes: r.Nodes, Shards: len(r.Shards), Score: pilp.Score(r.Result.Layout),
		})
		m := r.Result.Layout.Metrics()
		row.PILPMaxBends = m.MaxBends
		row.PILPTotalBends = m.TotalBends
		row.PILPRuntime = r.Result.Runtime
		row.PILPUnmatched = report.UnmatchedStrips(r.Result.Layout, 10)
		rows = append(rows, row)
	}
	fmt.Print(report.FormatTable1(rows))
}

func runFigure7(ctx context.Context, opts pilp.Options, outDir string) {
	spec, _ := circuits.BySpecName("lna94")
	c := circuits.Build(spec)
	res, err := pilp.GenerateCtx(ctx, c, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench:", err)
		os.Exit(1)
	}
	for i, snap := range res.Snapshots {
		path := filepath.Join(outDir, fmt.Sprintf("figure7_%d_%s.svg", i+1, snap.Phase))
		if err := layout.SaveSVG(path, snap.Layout, layout.SVGOptions{ShowLabels: true, Title: snap.Phase}); err != nil {
			fmt.Fprintln(os.Stderr, "rficbench:", err)
			os.Exit(1)
		}
		fmt.Printf("%s: %s (violations %d) → %s\n", snap.Phase, snap.Metrics, snap.Violations, path)
	}
}

func runFigure11(ctx context.Context, name string, opts pilp.Options) {
	spec, err := circuits.BySpecName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench:", err)
		os.Exit(1)
	}
	c := circuits.Build(spec)
	ml, err := manual.Generate(c, manual.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench:", err)
		os.Exit(1)
	}
	res, err := pilp.GenerateCtx(ctx, c, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench:", err)
		os.Exit(1)
	}
	freqs := emsim.Sweep(spec.Frequency, 51)
	manualRF := emsim.SimulateLayout(ml, freqs, spec.Frequency)
	pilpRF := emsim.SimulateLayout(res.Layout, freqs, spec.Frequency)
	fmt.Print(report.FormatSweep(fmt.Sprintf("%s manual layout", spec.Name), manualRF))
	fmt.Print(report.FormatSweep(fmt.Sprintf("%s P-ILP layout", spec.Name), pilpRF))
	fmt.Printf("# gain at %.0f GHz: manual %.3f dB, P-ILP %.3f dB\n",
		spec.Frequency, emsim.GainAt(manualRF, spec.Frequency), emsim.GainAt(pilpRF, spec.Frequency))
}
