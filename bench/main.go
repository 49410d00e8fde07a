// Command bench is the repository benchmark. It runs one workload — the
// paper's Table 1 batch, a phase-3 refinement batch, or closed-loop traffic
// against one or two in-process serving nodes — checks every layout against
// committed golden digests, prints one "workload metric value unit" line per
// metric and ends with a one-line JSON summary. Runs append to
// DIR/results.json, which -compare reads. See README.md.
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash bench/run.sh -workload table1 -seed 1
//	bash bench/run.sh -workload all -out .bench_build/a
//	bash bench/run.sh -workload serve-mix -trace 1
//	bash bench/run.sh -compare .bench_build/a/results.json .bench_build/b/results.json
//	bash bench/run.sh -workload all -update-golden
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// workloads lists the workload names in the order -workload all runs them.
var workloads = []string{"table1", "refine", "serve-novel", "serve-mix"}

// An untraced run sets its system up at least minSetups times, and more, up
// to maxSetups, until the set-ups add up to setupSeconds of wall time: a
// short set-up is repeated more often, so that setup_s, the median of their
// CPU times, is steady for every workload. The last set-up is the one
// measured.
const (
	minSetups    = 3
	maxSetups    = 9
	setupSeconds = 2.0
)

// runSeconds is BENCHMARK.json's run_seconds. Every workload runs its whole
// fixed input set, which is sized to take about that long; the benchmark's
// command line carries the value as -seconds, which must agree with it.
const runSeconds = 35

type config struct {
	workload string
	seed     int64
	trace    bool
	out      string
	golden   string // directory of the committed digests
	update   bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is one run as results.json keeps it.
type record struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Samples and Tail qualify the latency figures: how many operations they
	// summarize and which percentile detail.latency_tail_ms is.
	Samples int    `json:"samples,omitempty"`
	Tail    string `json:"tail,omitempty"`
	// Detail holds figures the metric lists do not carry: an untraced run's
	// wall-clock figures, and layer timings that exist only on some
	// workloads.
	Detail   map[string]metric `json:"detail,omitempty"`
	Problems []string          `json:"problems,omitempty"`
	Env      envInfo           `json:"env"`
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloads, ", ")+", or all")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: permutes netlist declaration order and the order work is issued in")
	seconds := flag.Int("seconds", runSeconds, "run length; must be BENCHMARK.json's run_seconds, which the input sets are sized to")
	traceFlag := flag.Int("trace", 0, "1 = traced run: report per-layer metrics and write DIR/trace-<workload>.json")
	flag.StringVar(&cfg.out, "out", ".bench_build/out", "directory `DIR` for results.json, trace files and cache tiers")
	flag.BoolVar(&cfg.update, "update-golden", false, "rewrite bench/golden from this run instead of checking against it")
	compare := flag.Bool("compare", false, "compare two results files given as arguments: -compare A.json B.json")
	flag.Parse()
	cfg.trace = *traceFlag != 0
	cfg.golden = filepath.Join("bench", "golden")
	if *seconds != runSeconds {
		fatalf("-seconds %d: the workloads' input sets are sized for %d", *seconds, runSeconds)
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatalf("-compare needs two results files")
		}
		spec, err := loadSpec("BENCHMARK.json")
		if err != nil {
			fatalf("%v", err)
		}
		ok, err := runCompare(os.Stdout, spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatalf("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case cfg.workload == "all":
		if !runAll(cfg) {
			os.Exit(1)
		}
	case cfg.workload == "":
		fatalf("-workload is required")
	default:
		rec, err := runWorkload(context.Background(), cfg)
		if err != nil {
			fatalf("%s: %v", cfg.workload, err)
		}
		if err := appendRecord(filepath.Join(cfg.out, "results.json"), rec); err != nil {
			fatalf("%v", err)
		}
		printRecord(rec)
		if !rec.Correct {
			os.Exit(1)
		}
	}
}

func fatalf(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

// runAll runs every workload in a fresh process of this binary, so no
// workload inherits another's heap, caches or goroutines.
func runAll(cfg config) bool {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	ok := true
	for _, w := range workloads {
		args := []string{"-workload", w, "-seed", fmt.Sprint(cfg.seed), "-out", cfg.out}
		if cfg.trace {
			args = append(args, "-trace", "1")
		}
		if cfg.update {
			args = append(args, "-update-golden")
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w, err)
			ok = false
		}
	}
	return ok
}

// printRecord prints one line per metric and the JSON summary line last.
func printRecord(rec record) {
	names := make([]string, 0, len(rec.Metrics))
	for name := range rec.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	if rec.Tail != "" {
		d := rec.Detail
		fmt.Printf("# %s: wall clock: latency over %d operations p50 %v ms, %s %v ms; %v ops/s; %v s; set-up %v s\n", rec.Workload, rec.Samples,
			d["latency_p50_ms"].Value, rec.Tail, d["latency_tail_ms"].Value, d["throughput_per_s"].Value, d["wall_s"].Value, d["setup_wall_s"].Value)
	}
	for _, p := range rec.Problems {
		fmt.Printf("# %s: FAIL %s\n", rec.Workload, p)
	}
	for _, name := range names {
		m := rec.Metrics[name]
		fmt.Printf("%s %s %v %s\n", rec.Workload, name, m.Value, m.Unit)
	}
	line, _ := json.Marshal(summary{rec.Correct, rec.Attempted, rec.Failed, rec.Metrics})
	fmt.Println(string(line))
}

// system is a workload's system under test: set up (the timed set-up), one
// measured pass over the whole input set, and tear-down.
type system interface {
	setup(ctx context.Context, tr *tracer) error
	measure(ctx context.Context, tr *tracer) (*pass, error)
	close()
	// probe runs the traced run's layer probes on the workload's circuits.
	probe(ctx context.Context, tr *tracer) probeStats
}

func newSystem(cfg config, scratch string) (system, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	switch cfg.workload {
	case "table1":
		return &batch{items: table1Items(rng), opts: table1Options(), warm: item{"warm", fuzzCircuit(batchWarmSeed)}}, nil
	case "refine":
		return &batch{items: refineItems(rng), opts: refineOptions(), warm: item{"warm", fuzzCircuit(batchWarmSeed)}}, nil
	case "serve-novel":
		return &serving{nodeNames: []string{"a"}, warm: warmRequests(rng), seq: novelRequests(rng), scratch: scratch}, nil
	case "serve-mix":
		pool, seq := mixRequests(rng)
		return &serving{nodeNames: []string{"a", "b"}, warm: pool, seq: seq, hitsOnly: true, scratch: scratch}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s or all)", cfg.workload, strings.Join(workloads, ", "))
}

// runWorkload builds the workload's system, with a scratch directory under
// the output directory for its cache tiers, and runs it.
func runWorkload(ctx context.Context, cfg config) (record, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return record{}, err
	}
	scratch, err := os.MkdirTemp(cfg.out, "scratch-*")
	if err != nil {
		return record{}, err
	}
	defer os.RemoveAll(scratch)
	sys, err := newSystem(cfg, scratch)
	if err != nil {
		return record{}, err
	}
	return run(ctx, cfg, sys)
}

// run executes one workload. An untraced run reports the end-to-end metrics;
// a traced run measures an untraced pass (the reference for trace.overhead),
// then a traced pass and the layer probes, and reports the per-layer metrics.
func run(ctx context.Context, cfg config, sys system) (record, error) {
	rec := record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Env: environment()}

	// setups holds each set-up's process CPU time, walls its wall time.
	var setups, walls []float64
	more := func() bool {
		if cfg.trace {
			return len(walls) < 1
		}
		return len(walls) < minSetups || (sum(walls) < setupSeconds && len(walls) < maxSetups)
	}
	for more() {
		if len(walls) > 0 {
			sys.close()
		}
		start, cpu0 := time.Now(), cpuTime()
		if err := sys.setup(ctx, nil); err != nil {
			sys.close()
			return rec, fmt.Errorf("set-up: %w", err)
		}
		walls = append(walls, time.Since(start).Seconds())
		setups = append(setups, (cpuTime() - cpu0).Seconds())
	}
	plain, err := sys.measure(ctx, nil)
	sys.close()
	if err != nil {
		return rec, err
	}
	passes := []*pass{plain}

	if !cfg.trace {
		var problems []string
		rec.Metrics, problems = endToEnd(plain, setups)
		rec.Problems = append(rec.Problems, problems...)
		rec.Samples = len(plain.latencies)
		_, rec.Tail = tail(plain.latencies)
		rec.Detail = wallClock(plain, walls)
	} else {
		tr := newTracer()
		if err := sys.setup(ctx, tr); err != nil {
			sys.close()
			return rec, fmt.Errorf("traced set-up: %w", err)
		}
		traced, err := sys.measure(ctx, tr)
		sys.close()
		if err != nil {
			return rec, err
		}
		passes = append(passes, traced)
		rec.Metrics = perLayer(plain, traced, sys.probe(ctx, tr))
		rec.Detail = traced.detail
		if err := tr.write(filepath.Join(cfg.out, "trace-"+cfg.workload+".json"), cfg.workload); err != nil {
			return rec, err
		}
	}

	for _, p := range passes {
		rec.Attempted += p.attempted
		rec.Failed += p.failed
		rec.Problems = append(rec.Problems, p.problems...)
	}
	rec.Problems = append(rec.Problems, checkGolden(cfg, passes[0].outputs)...)
	for _, p := range passes[1:] {
		rec.Problems = append(rec.Problems, sameOutputs(passes[0].outputs, p.outputs)...)
	}
	rec.Correct = rec.Failed == 0 && len(rec.Problems) == 0
	return rec, nil
}

// checkGolden compares the outputs against the committed digests, or with
// -update-golden rewrites them.
func checkGolden(cfg config, outs map[string]output) []string {
	path := filepath.Join(cfg.golden, cfg.workload+".json")
	if cfg.update {
		if err := writeGolden(path, outs); err != nil {
			return []string{err.Error()}
		}
		return nil
	}
	want, err := readGolden(path)
	if err != nil {
		return []string{err.Error()}
	}
	return diffGolden(want, outs)
}

// rssMB is the process's resident set size now.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(b))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// envInfo identifies the machine and the code a record was measured on.
type envInfo struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Revision   string `json:"revision"`
}

func environment() envInfo {
	return envInfo{Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), Revision: gitRevision(".git")}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision reads the checked-out commit from the git directory without
// running git; a checkout that is not a repository reports "unknown".
func gitRevision(gitDir string) string {
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown"
}

// appendRecord adds a run to a results file, creating it if needed.
func appendRecord(path string, rec record) error {
	var rs results
	b, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(b, &rs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	rs.Runs = append(rs.Runs, rec)
	out, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// results is the results.json document: every run appended to it.
type results struct {
	Runs []record `json:"runs"`
}
