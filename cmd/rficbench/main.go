// Command rficbench regenerates the paper's evaluation artifacts: the Table 1
// comparison of manual vs. P-ILP layouts, the Figure 7 phase snapshots (as
// SVG files) and the Figure 11 S-parameter sweeps. The Table 1 circuits are
// independent, so -parallel dispatches them to the batch engine and solves
// them concurrently; with -strip-time generous enough that no per-strip
// solve hits its limit, the layouts are identical to a sequential run
// (binding time limits stop solves at wall-clock-dependent points). Ctrl-C
// cancels cleanly at the next solver boundary.
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
// Usage:
//
//	rficbench -table1 -parallel 4
//	rficbench -figure7 -outdir out/
//	rficbench -figure11a
//	rficbench -figure11b
//	rficbench -table1 -cpuprofile cpu.pprof -memprofile mem.pprof
//	rficbench -fuzz -seed-base 1 -count 54 -budget 25 -fuzz-out fuzz.jsonl
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"rficlayout/internal/circuits"
	"rficlayout/internal/emsim"
	"rficlayout/internal/engine"
	"rficlayout/internal/layout"
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
	outDir := flag.String("outdir", ".", "directory for SVG output")
	stripTime := flag.Duration("strip-time", 2*time.Second, "time limit per per-strip ILP solve")
	parallel := flag.Int("parallel", 0, "concurrent circuit solves for -table1 (0 = GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after a final GC) to this file on exit")
	fuzzMode := flag.Bool("fuzz", false, "run the seeded circuit fuzzer: generate circuits and run the metamorphic audit battery on each")
	seedBase := flag.Int64("seed-base", 1, "first seed of the -fuzz sweep; seeds run contiguously from here")
	fuzzCount := flag.Int("count", 54, "number of seeds in the -fuzz sweep (54 covers the whole topology matrix once)")
	fuzzBudget := flag.Int("budget", 25, "deterministic branch-and-bound node budget per per-strip solve in -fuzz (phase 1 scales with it); node budgets, not wall clock, so results are byte-reproducible")
	fuzzChecks := flag.String("fuzz-checks", "", "comma-separated subset of audit checks for -fuzz (empty = full battery)")
	fuzzOut := flag.String("fuzz-out", "", "write one deterministic JSON line per fuzzed seed to this file (default stdout)")
	fuzzFixtures := flag.String("fuzz-fixtures", "fuzz-failures", "directory for minimized failing-circuit fixtures from -fuzz (empty disables minimization)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := pilp.Options{StripTimeLimit: *stripTime, MaxRefineIterations: 2}

	prof, err := startProfiler(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench:", err)
		os.Exit(1)
	}

	// os.Exit skips defers, so every early exit below flushes the profiler
	// explicitly.
	fail := func() {
		prof.Stop()
		os.Exit(1)
	}

	if *table1 {
		if !runTable1(ctx, opts, *parallel) {
			fail()
		}
	}
	if *figure7 {
		if !runFigure7(ctx, opts, *outDir) {
			fail()
		}
	}
	if *figure11a {
		if !runFigure11(ctx, "lna94", opts) {
			fail()
		}
	}
	if *figure11b {
		if !runFigure11(ctx, "buffer60", opts) {
			fail()
		}
	}
	if *fuzzMode {
		if !runFuzz(ctx, *seedBase, *fuzzCount, *fuzzBudget, *fuzzChecks, *fuzzOut, *fuzzFixtures) {
			fail()
		}
	}
	if !*table1 && !*figure7 && !*figure11a && !*figure11b && !*fuzzMode {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -table1, -figure7, -figure11a, -figure11b or -fuzz")
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

func buildCircuit(spec circuits.Spec, small bool) *netlist.Circuit {
	if small {
		return circuits.BuildSmallArea(spec)
	}
	return circuits.Build(spec)
}

// runTable1 prints Table 1 over every cell that solved and reports whether
// all of them did.
func runTable1(ctx context.Context, opts pilp.Options, parallel int) bool {
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
	ok := true
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
			ok = false
			continue
		}
		m := r.Result.Layout.Metrics()
		row.PILPMaxBends = m.MaxBends
		row.PILPTotalBends = m.TotalBends
		row.PILPRuntime = r.Result.Runtime
		row.PILPUnmatched = report.UnmatchedStrips(r.Result.Layout, 10)
		rows = append(rows, row)
	}
	fmt.Print(report.FormatTable1(rows))
	return ok
}

// runFigure7 writes the Figure 7 phase snapshots of the 94 GHz LNA as SVG
// files and reports whether every solve and write succeeded.
func runFigure7(ctx context.Context, opts pilp.Options, outDir string) bool {
	spec, _ := circuits.BySpecName("lna94")
	c := circuits.Build(spec)
	res, err := pilp.GenerateCtx(ctx, c, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench:", err)
		return false
	}
	for i, snap := range res.Snapshots {
		path := filepath.Join(outDir, fmt.Sprintf("figure7_%d_%s.svg", i+1, snap.Phase))
		if err := layout.SaveSVG(path, snap.Layout, layout.SVGOptions{ShowLabels: true, Title: snap.Phase}); err != nil {
			fmt.Fprintln(os.Stderr, "rficbench:", err)
			return false
		}
		fmt.Printf("%s: %s (violations %d) → %s\n", snap.Phase, snap.Metrics, snap.Violations, path)
	}
	return true
}

// runFigure11 prints the S-parameter sweeps of the manual and the P-ILP
// layout of one circuit and reports whether both layouts were produced.
func runFigure11(ctx context.Context, name string, opts pilp.Options) bool {
	spec, err := circuits.BySpecName(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench:", err)
		return false
	}
	c := circuits.Build(spec)
	ml, err := manual.Generate(c, manual.Options{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench:", err)
		return false
	}
	res, err := pilp.GenerateCtx(ctx, c, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rficbench:", err)
		return false
	}
	freqs := emsim.Sweep(spec.Frequency, 51)
	manualRF := emsim.SimulateLayout(ml, freqs, spec.Frequency)
	pilpRF := emsim.SimulateLayout(res.Layout, freqs, spec.Frequency)
	fmt.Print(report.FormatSweep(fmt.Sprintf("%s manual layout", spec.Name), manualRF))
	fmt.Print(report.FormatSweep(fmt.Sprintf("%s P-ILP layout", spec.Name), pilpRF))
	fmt.Printf("# gain at %.0f GHz: manual %.3f dB, P-ILP %.3f dB\n",
		spec.Frequency, emsim.GainAt(manualRF, spec.Frequency), emsim.GainAt(pilpRF, spec.Frequency))
	return true
}
