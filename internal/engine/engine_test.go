package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
	"rficlayout/internal/tech"
)

// testCircuit builds a minimal solvable circuit: PIN → M1 → POUT.
func testCircuit(name string) *netlist.Circuit {
	c := netlist.NewCircuit(name, tech.Default90nm(), geom.FromMicrons(400), geom.FromMicrons(300))
	d := netlist.NewDevice("M1", netlist.Transistor, geom.FromMicrons(40), geom.FromMicrons(30))
	d.AddPin("in", geom.PtMicrons(-20, 0), 0)
	d.AddPin("out", geom.PtMicrons(20, 0), 0)
	c.AddDevice(d)
	c.AddDevice(netlist.NewPad("PIN", c.Tech.PadSize))
	c.AddDevice(netlist.NewPad("POUT", c.Tech.PadSize))
	c.Connect("TL1", "PIN", "p", "M1", "in", geom.FromMicrons(130))
	c.Connect("TL2", "M1", "out", "POUT", "p", geom.FromMicrons(140))
	return c
}

func fastOptions() pilp.Options {
	return pilp.Options{
		ChainPoints:         3,
		MaxChainPoints:      3,
		StripTimeLimit:      2 * time.Second,
		PhaseTimeLimit:      5 * time.Second,
		MaxRefineIterations: 1,
	}
}

// TestRunBatch solves several circuits concurrently and checks that every
// result arrives in input order with a complete layout.
func TestRunBatch(t *testing.T) {
	jobs := []Job{
		{Circuit: testCircuit("alpha"), Options: fastOptions()},
		{Circuit: testCircuit("beta"), Options: fastOptions()},
		{Circuit: testCircuit("gamma"), Options: fastOptions()},
	}
	results := Run(context.Background(), jobs, Options{Parallel: 2})
	if len(results) != len(jobs) {
		t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
	}
	for i, r := range results {
		if r.Name != jobs[i].Circuit.Name {
			t.Errorf("result %d named %q, want %q", i, r.Name, jobs[i].Circuit.Name)
		}
		if r.Err != nil {
			t.Errorf("job %s failed: %v", r.Name, r.Err)
			continue
		}
		if r.Result.Layout == nil || !r.Result.Layout.Complete() {
			t.Errorf("job %s produced an incomplete layout", r.Name)
		}
	}
}

// TestRunBatchDeterministicAcrossParallelism checks the batch-level
// determinism contract: per-job layouts do not depend on how many jobs run
// concurrently.
func TestRunBatchDeterministicAcrossParallelism(t *testing.T) {
	build := func() []Job {
		return []Job{
			{Circuit: testCircuit("alpha"), Options: fastOptions()},
			{Circuit: testCircuit("beta"), Options: fastOptions()},
		}
	}
	seq := Run(context.Background(), build(), Options{Parallel: 1})
	par := Run(context.Background(), build(), Options{Parallel: 4})
	for i := range seq {
		if seq[i].Err != nil || par[i].Err != nil {
			t.Fatalf("job %d failed: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		if layout.Format(seq[i].Result.Layout) != layout.Format(par[i].Result.Layout) {
			t.Errorf("job %s: parallel batch produced a different layout", seq[i].Name)
		}
	}
}

// TestRunIsolatesFailures checks that a broken job fails alone: nil circuits
// and invalid circuits produce per-job errors while their neighbours solve.
func TestRunIsolatesFailures(t *testing.T) {
	invalid := netlist.NewCircuit("invalid", tech.Default90nm(), geom.FromMicrons(100), geom.FromMicrons(100))
	invalid.Connect("TL1", "GHOST", "p", "PHANTOM", "q", geom.FromMicrons(50))
	jobs := []Job{
		{Name: "broken-nil", Circuit: nil},
		{Circuit: invalid, Options: fastOptions()},
		{Circuit: testCircuit("ok"), Options: fastOptions()},
	}
	results := Run(context.Background(), jobs, Options{Parallel: 3})
	if results[0].Err == nil || !strings.Contains(results[0].Err.Error(), "no circuit") {
		t.Errorf("nil-circuit job: err = %v", results[0].Err)
	}
	if results[1].Err == nil {
		t.Error("invalid circuit did not fail")
	}
	if results[2].Err != nil {
		t.Errorf("healthy neighbour failed: %v", results[2].Err)
	}
}

// TestRunPreCancelled checks that a cancelled context fails every job with
// the context error without solving anything.
func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	results := Run(ctx, []Job{
		{Circuit: testCircuit("a"), Options: fastOptions()},
		{Circuit: testCircuit("b"), Options: fastOptions()},
	}, Options{})
	for _, r := range results {
		if r.Err == nil {
			t.Errorf("job %s ran under a cancelled context", r.Name)
		}
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled batch took %v", elapsed)
	}
}

// TestRunReportsStats checks the per-job stats surface: every job gets a
// wall-clock Runtime and a positive MILP node count, failed jobs still get a
// Runtime, and caller-assigned IDs are echoed.
func TestRunReportsStats(t *testing.T) {
	jobs := []Job{
		{ID: "job-1", Circuit: testCircuit("alpha"), Options: fastOptions()},
		{ID: "job-2", Name: "broken", Circuit: nil},
	}
	results := Run(context.Background(), jobs, Options{Parallel: 1})
	ok, broken := results[0], results[1]
	if ok.ID != "job-1" || broken.ID != "job-2" {
		t.Errorf("IDs not echoed: got %q, %q", ok.ID, broken.ID)
	}
	if ok.Err != nil {
		t.Fatalf("job failed: %v", ok.Err)
	}
	if ok.Runtime <= 0 {
		t.Errorf("successful job has no wall-clock runtime: %v", ok.Runtime)
	}
	if ok.Nodes <= 0 {
		t.Errorf("successful job reports %d MILP nodes, want > 0", ok.Nodes)
	}
	if ok.Result.Nodes != ok.Nodes {
		t.Errorf("engine nodes %d differ from flow nodes %d", ok.Nodes, ok.Result.Nodes)
	}
	if broken.Err == nil {
		t.Fatal("nil-circuit job did not fail")
	}
	if broken.Nodes != 0 {
		t.Errorf("failed job reports %d nodes, want 0", broken.Nodes)
	}
}
