package main

import (
	"context"
	"fmt"
	"time"

	"rficlayout/internal/engine"
	"rficlayout/internal/layout"
	"rficlayout/internal/pilp"
)

// batch lays its items out one engine.Run call each, in order: the paper's
// Table 1 usage, one circuit at a time with Workers goroutines in its flow.
// It bypasses the server, the cache and the cluster.
type batch struct {
	items []item
	opts  pilp.Options
	warm  item // solved by every set-up
}

// setup solves the warm-up circuit, so the first measured job does not pay
// the process's one-time costs (heap growth, first-touch page faults).
func (b *batch) setup(ctx context.Context, _ *tracer) error {
	return b.solve(ctx, b.warm).Err
}

func (b *batch) solve(ctx context.Context, it item) engine.Result {
	return engine.Run(ctx, []engine.Job{{Name: it.label, Circuit: it.circuit, Options: b.opts}}, engine.Options{Parallel: 1})[0]
}

func (b *batch) close() {}

// probe runs the layer probes on every item; the pilp phase times come from
// the measured jobs themselves.
func (b *batch) probe(ctx context.Context, tr *tracer) probeStats {
	return probeStrips(ctx, b.items, tr)
}

func (b *batch) measure(ctx context.Context, tr *tracer) (*pass, error) {
	p := newPass()
	p.clients = 1
	layouts := map[string]*layout.Layout{}
	m := startMeter(tr)
	for _, it := range b.items {
		p.attempted++
		start := time.Now()
		r := b.solve(ctx, it)
		end := time.Now()
		if r.Err != nil {
			p.failed++
			p.problems = append(p.problems, fmt.Sprintf("%s: %v", it.label, r.Err))
			continue
		}
		wall := end.Sub(start)
		p.latencies = append(p.latencies, ms(wall))
		p.jobs = append(p.jobs, wall.Seconds())
		p.ops++
		p.busy += wall.Seconds()
		p.solver.add(r.Nodes, r.LP)
		layouts[it.label] = r.Result.Layout
		phases := phaseTimes(r.Result.Snapshots)
		job := tr.add(0, "engine.job", it.label, start, end)
		at := start
		for i, name := range []string{"pilp.phase1", "pilp.phase2", "pilp.phase3"} {
			p.phases[i] += phases[i].Seconds()
			tr.add(job, name, it.label, at, at.Add(phases[i]))
			at = at.Add(phases[i])
		}
	}
	m.stop(p)
	for _, it := range b.items {
		if l, ok := layouts[it.label]; ok {
			p.outputs[it.label] = output{layout.Format(l), it.circuit}
		}
	}
	return p, nil
}

// phaseTimes splits a flow's snapshot times into phase 1 (construction plus
// global adjustment), phase 2 and phase 3.
func phaseTimes(snaps []pilp.Snapshot) [3]time.Duration {
	at := map[string]time.Duration{}
	for _, s := range snaps {
		at[s.Phase] = s.Elapsed
	}
	p1, p2, p3 := at["phase1-blurred-routing"], at["phase2-overlap-fixing"], at["phase3-refinement"]
	return [3]time.Duration{p1, p2 - p1, p3 - p2}
}
