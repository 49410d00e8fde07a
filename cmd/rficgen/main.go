// Command rficgen runs the progressive ILP-based layout flow on one or more
// circuit files and writes the resulting layout, an SVG rendering and a
// quality report. With several -circuit files (or -parallel > 1) the circuits
// are solved concurrently through the batch engine. Ctrl-C cancels the solve
// cleanly at the next solver boundary.
//
// With -cache DIR, solved layouts are stored in a content-addressed result
// cache under DIR and repeated runs (same circuit, same solve options) skip
// the solve entirely — the flow is deterministic, so the cached layout is
// byte-identical to what re-solving would produce.
//
// Usage:
//
//	rficgen -circuit lna.rfic -out lna.rlay -svg lna.svg
//	rficgen -benchmark lna94 -svg lna94.svg
//	rficgen -parallel 4 -circuit a.rfic -circuit b.rfic -circuit c.rfic
//	rficgen -cache .rficcache -circuit lna.rfic -out lna.rlay
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"rficlayout/internal/cache"
	"rficlayout/internal/circuits"
	"rficlayout/internal/engine"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
	"rficlayout/internal/report"
)

// stringList collects repeated -circuit flags.
type stringList []string

func (s *stringList) String() string     { return fmt.Sprint(*s) }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var circuitPaths stringList
	flag.Var(&circuitPaths, "circuit", "circuit file to lay out (repeatable)")
	benchmark := flag.String("benchmark", "", "built-in benchmark circuit (lna94, buffer60, lna60) instead of -circuit")
	smallArea := flag.Bool("small-area", false, "use the smaller stress-test area of the benchmark circuit")
	outPath := flag.String("out", "", "write the layout file here (single circuit only)")
	svgPath := flag.String("svg", "", "write an SVG rendering here (single circuit only)")
	stripTime := flag.Duration("strip-time", 3*time.Second, "time limit per per-strip ILP solve")
	parallel := flag.Int("parallel", 0, "worker count: jobs in flight and per-flow strip solvers (0 = GOMAXPROCS)")
	cacheDir := flag.String("cache", "", "result cache directory; hits skip the solve with byte-identical layouts")
	verbose := flag.Bool("v", false, "log solver progress")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// Workers stays unset while building jobs: with several circuits the
	// engine parallelizes across jobs (and pins each flow to one worker);
	// only a single-circuit run hands -parallel to the flow's own pool.
	opts := pilp.Options{StripTimeLimit: *stripTime}
	if *verbose {
		opts.Logf = func(format string, args ...interface{}) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	var jobs []engine.Job
	switch {
	case *benchmark != "":
		spec, err := circuits.BySpecName(*benchmark)
		if err != nil {
			fatal(err)
		}
		circuit := circuits.Build(spec)
		if *smallArea {
			circuit = circuits.BuildSmallArea(spec)
		}
		jobs = append(jobs, engine.Job{Circuit: circuit, Options: opts})
	case len(circuitPaths) > 0:
		for _, path := range circuitPaths {
			c, err := netlist.ParseFile(path)
			if err != nil {
				fatal(err)
			}
			jobs = append(jobs, engine.Job{Name: path, Circuit: c, Options: opts})
		}
	default:
		fatal(fmt.Errorf("either -circuit or -benchmark is required"))
	}
	if len(jobs) > 1 && (*outPath != "" || *svgPath != "") {
		fatal(fmt.Errorf("-out and -svg apply to a single circuit; got %d", len(jobs)))
	}
	if len(jobs) == 1 {
		jobs[0].Options.Workers = *parallel
	}

	// With -cache, answer as many jobs as possible from the content-addressed
	// result cache and only hand the misses to the engine. The cache key
	// ignores worker counts (output-invariant), so -parallel never splits the
	// cache. An entry whose layout text no longer parses (format drift, torn
	// disk entry) degrades to a miss and is re-solved.
	var store cache.Cache
	type cachedResult struct {
		entry  cache.Entry
		layout *layout.Layout
	}
	cached := make([]*cachedResult, len(jobs))
	if *cacheDir != "" {
		disk, err := cache.NewDir(*cacheDir)
		if err != nil {
			fatal(err)
		}
		store = disk
		for i := range jobs {
			entry, ok := store.Get(cache.Key(jobs[i].Circuit, jobs[i].Options))
			if !ok {
				continue
			}
			if l, err := layout.ParseLayoutString(string(entry.Layout), jobs[i].Circuit); err == nil {
				cached[i] = &cachedResult{entry: entry, layout: l}
			}
		}
	}
	var pending []engine.Job
	var pendingIdx []int
	for i := range jobs {
		if cached[i] == nil {
			pending = append(pending, jobs[i])
			pendingIdx = append(pendingIdx, i)
		}
	}

	engineOpts := engine.Options{Parallel: *parallel}
	if *verbose {
		engineOpts.Logf = opts.Logf
	}
	results := make([]engine.Result, len(jobs))
	for i, r := range engine.Run(ctx, pending, engineOpts) {
		results[pendingIdx[i]] = r
	}

	failed := 0
	for i := range jobs {
		circuit := jobs[i].Circuit
		var lay *layout.Layout
		var layoutText []byte
		var runtime time.Duration
		if hit := cached[i]; hit != nil {
			lay, layoutText, runtime = hit.layout, hit.entry.Layout, hit.entry.Runtime
			fmt.Printf("%s (cached)\n", report.LayoutSummary(circuit.Name, lay, runtime))
		} else {
			r := results[i]
			if r.Err != nil {
				fmt.Fprintf(os.Stderr, "rficgen: %s: %v\n", r.Name, r.Err)
				failed++
				continue
			}
			lay, runtime = r.Result.Layout, r.Result.Runtime
			layoutText = []byte(layout.Format(lay))
			if store != nil {
				// Store the flow runtime (what the cold run prints) so warm
				// summaries repeat the cold run's numbers exactly.
				store.Put(cache.Key(circuit, jobs[i].Options), cache.Entry{
					Circuit: circuit.Name,
					Layout:  layoutText,
					Runtime: r.Result.Runtime,
					Effort:  r.Effort,
				})
			}
			fmt.Println(report.LayoutSummary(circuit.Name, lay, runtime))
		}
		for _, v := range pilp.Violations(lay) {
			fmt.Printf("  violation: %v\n", v)
		}
		if *outPath != "" {
			// The cached bytes are written verbatim so a warm run's output is
			// byte-identical to the cold run that produced the entry.
			if err := os.WriteFile(*outPath, layoutText, 0o644); err != nil {
				fatal(err)
			}
		}
		if *svgPath != "" {
			if err := layout.SaveSVG(*svgPath, lay, circuit.Name); err != nil {
				fatal(err)
			}
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rficgen:", err)
	os.Exit(1)
}
