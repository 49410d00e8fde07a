package main

import (
	"context"
	"time"

	"rficlayout/internal/geom"
	"rficlayout/internal/ilpmodel"
	"rficlayout/internal/milp"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
)

// probeStats are the layer probes of a traced run. Each probe circuit is
// constructed with pilp.Construct; then each of its strips becomes a
// one-strip exact model on that layout (ilpmodel.Build) solved under the
// workloads' node budget ((*ilpmodel.Model).SolveAndExtractCtx), so model
// building and branch-and-bound are timed apart.
type probeStats struct {
	constructMS, buildMS, solveMS []float64
	nodes                         int
	// phases and flows come from full flows over the probe circuits, which
	// the serving workloads run because the server keeps the flow's phase
	// times to itself.
	phases [3]float64
	flows  int
}

// probeChainPoints is the probe models' chain-point count per strip, and
// probePairRadius prunes their non-overlap pairs the way the flow's per-strip
// models do (pilp's default pair radius); without it every device pair
// enters the model and a Table 1 strip takes seconds to solve.
const probeChainPoints = 3

const probePairRadius = 80 * geom.Micron

func probeStrips(ctx context.Context, items []item, tr *tracer) probeStats {
	var ps probeStats
	root := tr.begin("probe")
	defer tr.end()
	nodeBudget := table1Options().StripNodeLimit
	for _, it := range items {
		c := netlist.Normalized(it.circuit)
		start := time.Now()
		l, err := pilp.Construct(c)
		end := time.Now()
		tr.add(root, "pilp.Construct", it.label, start, end)
		if err != nil {
			continue
		}
		ps.constructMS = append(ps.constructMS, ms(end.Sub(start)))
		for _, strip := range c.Microstrips {
			start := time.Now()
			m, err := ilpmodel.Build(c, ilpmodel.Config{
				DefaultChainPoints: probeChainPoints,
				FreeStrips:         []string{strip.Name},
				FreeDevices:        []string{},
				Fixed:              l,
				PairRadius:         probePairRadius,
			})
			built := time.Now()
			tr.add(root, "ilpmodel.build", it.label, start, built)
			if err != nil {
				continue
			}
			ps.buildMS = append(ps.buildMS, ms(built.Sub(start)))
			_, r, _ := m.SolveAndExtractCtx(ctx, milp.SolveOptions{MaxNodes: nodeBudget})
			solved := time.Now()
			tr.add(root, "milp.solve", it.label, built, solved)
			ps.solveMS = append(ps.solveMS, ms(solved.Sub(built)))
			if r != nil {
				ps.nodes += r.Nodes
			}
		}
	}
	return ps
}

// probeFlows runs the full flow on each item with one worker, as a serving
// node does, and sums its phase times into ps.
func probeFlows(ctx context.Context, items []item, opts pilp.Options, ps *probeStats) {
	opts.Workers = 1
	for _, it := range items {
		res, err := pilp.GenerateCtx(ctx, it.circuit, opts)
		if err != nil {
			continue
		}
		ph := phaseTimes(res.Snapshots)
		for i := range ph {
			ps.phases[i] += ph[i].Seconds()
		}
		ps.flows++
	}
}
