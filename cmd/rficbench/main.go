// Command rficbench regenerates the paper's evaluation artifacts: the Table 1
// comparison of manual vs. P-ILP layouts, the Figure 7 phase snapshots (as
// SVG files) and the Figure 11 S-parameter sweeps. The Table 1 circuits are
// independent, so -parallel dispatches them to the batch engine and solves
// them concurrently; with -strip-time generous enough that no per-strip
// solve hits its limit, the layouts are identical to a sequential run
// (binding time limits stop solves at wall-clock-dependent points). Ctrl-C
// cancels cleanly at the next solver boundary.
//
// The seeded fuzz sweep through the metamorphic audit battery is a test,
// TestSweep in internal/audit; profile with go test -cpuprofile or the
// benchmark's per-layer traces.
//
// Usage:
//
//	rficbench -table1 -parallel 4
//	rficbench -figure7 -outdir out/
//	rficbench -figure11a
//	rficbench -figure11b
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
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
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := pilp.Options{StripTimeLimit: *stripTime, MaxRefineIterations: 2}

	if !*table1 && !*figure7 && !*figure11a && !*figure11b {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -table1, -figure7, -figure11a or -figure11b")
		os.Exit(2)
	}
	if *table1 && !runTable1(ctx, opts, *parallel) ||
		*figure7 && !runFigure7(ctx, opts, *outDir) ||
		*figure11a && !runFigure11(ctx, "lna94", opts) ||
		*figure11b && !runFigure11(ctx, "buffer60", opts) {
		os.Exit(1)
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
			ml, err := manual.Generate(c)
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
		if err := layout.SaveSVG(path, snap.Layout, snap.Phase); err != nil {
			fmt.Fprintln(os.Stderr, "rficbench:", err)
			return false
		}
		fmt.Printf("%s: %s (violations %d) → %s\n", snap.Phase, snap.Layout.Metrics(), len(pilp.Violations(snap.Layout)), path)
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
	ml, err := manual.Generate(c)
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
