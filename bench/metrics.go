package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
	"rficlayout/internal/report"
)

// unmatchedTol is the length error beyond which a strip counts as unmatched:
// the flow's 10 nm rounding tolerance for an exact length.
const unmatchedTol = 10

// endToEndMetrics are the metrics an untraced run reports, with their units.
// BENCHMARK.json lists the same names and units.
var endToEndMetrics = []metricSpec{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"rss_p50_mb", "MB"},
	{"bends_per_strip", "bends/strip"},
	{"drc_per_strip", "viol/strip"},
	{"unmatched_share", "ratio"},
}

// layerMetrics are the metrics a traced run reports, with their units. Every
// workload reports all of them; a layer a workload does not run reads 0.
var layerMetrics = []metricSpec{
	{"lp.pivots", "count"},
	{"lp.refactorizations", "count"},
	{"lp.peak_eta", "count"},
	{"lp.cpu_us_per_pivot", "us"},
	{"milp.nodes", "count"},
	{"milp.warm_hit_rate", "ratio"},
	{"milp.cold_solves", "count"},
	{"milp.solve_ms_p50", "ms"},
	{"milp.nodes_per_s", "1/s"},
	{"ilpmodel.build_ms_p50", "ms"},
	{"ilpmodel.build_ms_total", "ms"},
	{"pilp.construct_ms", "ms"},
	{"pilp.phase1_s", "s"},
	{"pilp.phase2_s", "s"},
	{"pilp.phase3_s", "s"},
	{"engine.job_s_max", "s"},
	{"server.queue_wait_share", "ratio"},
	{"server.rejected", "count"},
	{"server.coalesced", "count"},
	{"cache.time_share", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"cache.entries", "count"},
	{"cache.bytes", "bytes"},
	{"cluster.time_share", "ratio"},
	{"cluster.forwarded", "count"},
	{"cluster.audited", "count"},
	{"cluster.retried", "count"},
	{"cluster.degraded", "count"},
	{"cluster.audit_mismatch", "count"},
	{"go.alloc_mb", "MB"},
	{"go.gc_cycles", "count"},
	{"trace.overhead", "ratio"},
}

type metricSpec struct{ name, unit string }

// pass is what one measured execution of a workload produced.
type pass struct {
	wall      time.Duration // the timed region
	cpu       time.Duration // process CPU time over the timed region
	latencies []float64     // ms, of the operation the latency figures describe
	ops       int           // completed operations: jobs or answered requests
	busy      float64       // seconds the ops took, summed
	clients   int           // operations in flight at once
	attempted int
	failed    int
	problems  []string
	outputs   map[string]output // one per distinct input, by label
	solver    solverCounts
	jobs      []float64  // engine job wall times, s
	phases    [3]float64 // pilp phase times summed over the jobs, s (batch)
	allocMB   float64
	gcCycles  float64
	rssMB     []float64          // resident set size, sampled over the timed region
	layer     map[string]float64 // serving-layer values of layerMetrics
	detail    map[string]metric  // serving-layer timings, for results.json
}

func newPass() *pass {
	return &pass{outputs: map[string]output{}, layer: map[string]float64{}, detail: map[string]metric{}}
}

// output is a layout a workload produced and the circuit it lays out.
type output struct {
	layout  string
	circuit *netlist.Circuit
}

// solverCounts sums the effort counters of the solves a pass ran.
type solverCounts struct {
	pivots, refactorizations, peakEta       int
	nodes, warmHits, warmMisses, coldSolves int
}

func (s *solverCounts) add(nodes int, lp pilp.LPStats) {
	s.nodes += nodes
	s.pivots += lp.Pivots
	s.refactorizations += lp.Refactorizations
	s.peakEta = max(s.peakEta, lp.PeakEta)
	s.warmHits += lp.WarmHits
	s.warmMisses += lp.WarmMisses
	s.coldSolves += lp.ColdSolves
}

// meter measures a pass's timed region: wall clock, process CPU time, Go
// heap activity and resident memory, and switches the tracer on for it.
type meter struct {
	t0      time.Time
	cpu0    time.Duration
	ms0     runtime.MemStats
	tr      *tracer
	stopRSS chan struct{}
	rss     chan []float64
}

// rssEvery is the resident-memory sampling period.
const rssEvery = 50 * time.Millisecond

func startMeter(tr *tracer) *meter {
	m := &meter{tr: tr, stopRSS: make(chan struct{}), rss: make(chan []float64, 1)}
	runtime.ReadMemStats(&m.ms0)
	m.cpu0 = cpuTime()
	go func() {
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		var samples []float64
		for {
			select {
			case <-tick.C:
				samples = append(samples, rssMB())
			case <-m.stopRSS:
				m.rss <- append(samples, rssMB())
				return
			}
		}
	}()
	tr.begin("workload")
	m.t0 = time.Now()
	return m
}

func (m *meter) stop(p *pass) {
	p.wall = time.Since(m.t0)
	m.tr.end()
	close(m.stopRSS)
	p.rssMB = <-m.rss
	p.cpu = cpuTime() - m.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	p.allocMB = float64(ms.TotalAlloc-m.ms0.TotalAlloc) / (1 << 20)
	p.gcCycles = float64(ms.NumGC - m.ms0.NumGC)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// wallClockFigures are an untraced run's wall-clock figures, which
// results.json keeps beside the metrics: the operation latency's median and
// tail, the closed loop's throughput, the measured region's length and the
// median set-up. On a shared host they carry the time the machine's
// processors were given to other guests (steal time), so the metrics charge
// time as CPU time instead.
var wallClockFigures = []metricSpec{
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"wall_s", "s"},
	{"setup_wall_s", "s"},
}

// wallClock computes an untraced run's wall-clock figures from its pass and
// its set-ups' wall times. Throughput is the closed loop's rate with every
// client busy, so the drain at the end of a pass, when one client waits for
// the last request of the other, does not count.
func wallClock(p *pass, setupWalls []float64) map[string]metric {
	tailMS, _ := tail(p.latencies)
	return collect(wallClockFigures, map[string]float64{
		"latency_p50_ms":   median(p.latencies),
		"latency_tail_ms":  tailMS,
		"throughput_per_s": ratio(float64(p.ops*p.clients), p.busy),
		"wall_s":           p.wall.Seconds(),
		"setup_wall_s":     median(setupWalls),
	})
}

// endToEnd computes an untraced run's metrics from its pass and its set-ups'
// CPU times; the layout-quality figures count every distinct layout the pass
// produced once. Time is process CPU time: per set-up, and over the measured
// region per completed operation, the solver, server, cache, cluster and
// in-process clients together.
func endToEnd(p *pass, setups []float64) (map[string]metric, []string) {
	var strips, bends, drc, unmatched float64
	var problems []string
	for _, label := range sortedLabels(p.outputs) {
		o := p.outputs[label]
		l, err := layout.ParseLayoutString(o.layout, o.circuit)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: layout does not parse: %v", label, err))
			continue
		}
		strips += float64(len(o.circuit.Microstrips))
		bends += float64(l.Metrics().TotalBends)
		drc += float64(len(l.Check(layout.CheckOptions{PinTolerance: 2})))
		unmatched += float64(report.UnmatchedStrips(l, unmatchedTol))
	}
	v := map[string]float64{
		"setup_s":         median(setups),
		"cpu_ms_per_op":   ratio(ms(p.cpu), float64(p.ops)),
		"rss_p50_mb":      median(p.rssMB),
		"bends_per_strip": ratio(bends, strips),
		"drc_per_strip":   ratio(drc, strips),
		"unmatched_share": ratio(unmatched, strips),
	}
	return collect(endToEndMetrics, v), problems
}

// perLayer computes a traced run's metrics from the untraced pass (the
// reference time for trace.overhead and the CPU time per pivot), the traced
// pass and the layer probes.
func perLayer(plain, traced *pass, pr probeStats) map[string]metric {
	s := traced.solver
	phases := traced.phases
	if pr.flows > 0 {
		phases = pr.phases
	}
	v := map[string]float64{
		"lp.pivots":               float64(s.pivots),
		"lp.refactorizations":     float64(s.refactorizations),
		"lp.peak_eta":             float64(s.peakEta),
		"lp.cpu_us_per_pivot":     ratio(float64(plain.cpu.Microseconds()), float64(plain.solver.pivots)),
		"milp.nodes":              float64(s.nodes),
		"milp.warm_hit_rate":      ratio(float64(s.warmHits), float64(s.warmHits+s.warmMisses)),
		"milp.cold_solves":        float64(s.coldSolves),
		"milp.solve_ms_p50":       median(pr.solveMS),
		"milp.nodes_per_s":        ratio(float64(pr.nodes), sum(pr.solveMS)/1000),
		"ilpmodel.build_ms_p50":   median(pr.buildMS),
		"ilpmodel.build_ms_total": sum(pr.buildMS),
		"pilp.construct_ms":       median(pr.constructMS),
		"pilp.phase1_s":           phases[0],
		"pilp.phase2_s":           phases[1],
		"pilp.phase3_s":           phases[2],
		"engine.job_s_max":        quantile(traced.jobs, 1),
		"go.alloc_mb":             traced.allocMB,
		"go.gc_cycles":            traced.gcCycles,
		"trace.overhead":          ratio(traced.wall.Seconds(), plain.wall.Seconds()) - 1,
	}
	for name, x := range traced.layer {
		v[name] = x
	}
	return collect(layerMetrics, v)
}

// collect builds the metric map of specs from values; a spec without a
// value reads 0.
func collect(specs []metricSpec, v map[string]float64) map[string]metric {
	out := make(map[string]metric, len(specs))
	for _, s := range specs {
		x := v[s.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0
		}
		out[s.name] = metric{x, s.unit}
	}
	return out
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

// addDist records a timing distribution's median and its tail in detail.
func addDist(detail map[string]metric, name, unit string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	detail[name+"_p50"] = metric{median(xs), unit}
	v, label := tail(xs)
	detail[name+"_"+label] = metric{v, unit}
}

// sameOutputs reports every label whose layout differs between two passes.
func sameOutputs(a, b map[string]output) []string {
	var problems []string
	for _, label := range sortedLabels(b) {
		if o, ok := a[label]; ok && o.layout != b[label].layout {
			problems = append(problems, fmt.Sprintf("%s: layout differs between the untraced and the traced pass", label))
		}
	}
	return problems
}

func sortedLabels(outs map[string]output) []string {
	labels := make([]string, 0, len(outs))
	for l := range outs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}
