package pilp

import (
	"context"
	"runtime"
	"testing"
	"time"

	"rficlayout/internal/faultinject"
	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
	"rficlayout/internal/tech"
)

// miniCircuit is the smallest interesting flow input: one transistor between
// two pads plus a shunt capacitor, three strips with a junction at M1.out.
func miniCircuit() *netlist.Circuit {
	c := netlist.NewCircuit("mini", tech.Default90nm(), geom.FromMicrons(420), geom.FromMicrons(320))
	d := netlist.NewDevice("M1", netlist.Transistor, geom.FromMicrons(40), geom.FromMicrons(30))
	d.AddPin("in", geom.PtMicrons(-20, 0), 0)
	d.AddPin("out", geom.PtMicrons(20, 0), 0)
	c.AddDevice(d)
	cap := netlist.NewDevice("C1", netlist.Capacitor, geom.FromMicrons(40), geom.FromMicrons(30))
	cap.AddPin("p", geom.PtMicrons(0, -15), 0)
	c.AddDevice(cap)
	c.AddDevice(netlist.NewPad("PIN", c.Tech.PadSize))
	c.AddDevice(netlist.NewPad("POUT", c.Tech.PadSize))
	c.Connect("TL1", "PIN", "p", "M1", "in", geom.FromMicrons(140))
	c.Connect("TL2", "M1", "out", "POUT", "p", geom.FromMicrons(150))
	c.Connect("TLC", "M1", "out", "C1", "p", geom.FromMicrons(80))
	return c
}

// twoStripCircuit strips the mini circuit down to a single series chain for
// the -short determinism check: PIN → M1 → POUT, no junction.
func twoStripCircuit() *netlist.Circuit {
	c := netlist.NewCircuit("twostrip", tech.Default90nm(), geom.FromMicrons(400), geom.FromMicrons(300))
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

// miniOptions keeps the flow fast while leaving time limits generous enough
// that they never bind on the mini circuit — binding limits are the one
// legitimate source of nondeterminism.
func miniOptions() Options {
	return Options{
		ChainPoints:         3,
		MaxChainPoints:      4,
		StripTimeLimit:      20 * time.Second,
		PhaseTimeLimit:      30 * time.Second,
		MaxRefineIterations: 1,
	}
}

// TestGenerateDeterministicAcrossWorkers solves the same circuit with 1, 2
// and GOMAXPROCS workers and requires byte-identical serialized layouts: the
// worker pool must only change wall-clock time, never the result. The MILP
// solves are an order of magnitude slower under -race, so -short drops the
// junction stub and the middle worker count; the full variant still runs in
// the long tier.
func TestGenerateDeterministicAcrossWorkers(t *testing.T) {
	c := miniCircuit()
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	if testing.Short() {
		c = twoStripCircuit()
		counts = []int{1, runtime.GOMAXPROCS(0)}
	}
	var ref string
	for i, workers := range counts {
		opts := miniOptions()
		opts.Workers = workers
		res, err := GenerateCtx(context.Background(), c, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if res.Layout == nil || !res.Layout.Complete() {
			t.Fatalf("workers=%d: incomplete layout", workers)
		}
		got := layout.Format(res.Layout)
		if i == 0 {
			ref = got
			continue
		}
		if got != ref {
			t.Errorf("workers=%d produced a different layout:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
				workers, ref, workers, got)
		}
	}
}

// TestRunJobsPropagatesPanic checks that a panic inside a pooled job of the
// flow is re-raised on the goroutine that called GenerateCtx (engine.Run's
// per-job recover depends on this) instead of crashing the process from a
// worker goroutine. The panic is injected at the pool's conc.panic point.
func TestRunJobsPropagatesPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		plan, err := faultinject.ParsePlan(faultinject.PointConcPanic + "=1/1")
		if err != nil {
			t.Fatal(err)
		}
		faultinject.Enable(faultinject.New(plan, 1))
		func() {
			defer faultinject.Disable()
			defer func() {
				p, ok := recover().(faultinject.Panic)
				if !ok || p.Point != faultinject.PointConcPanic {
					t.Errorf("workers=%d: injected pool panic was not propagated to the caller", workers)
				}
			}()
			opts := miniOptions()
			opts.Workers = workers
			GenerateCtx(context.Background(), miniCircuit(), opts)
		}()
	}
}

// TestGenerateCtxPreCancelled checks that an already-cancelled context fails
// the flow promptly instead of solving anything.
func TestGenerateCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := GenerateCtx(ctx, miniCircuit(), miniOptions())
	if err == nil {
		t.Fatal("expected an error from a pre-cancelled context")
	}
	if res != nil {
		t.Errorf("expected no result, got %+v", res)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled flow took %v", elapsed)
	}
}

// TestGenerateCtxCancelMidFlow cancels shortly after the flow starts and
// checks that it returns with the context error rather than running to
// completion.
func TestGenerateCtxCancelMidFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive cancellation test skipped in -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := GenerateCtx(ctx, cascadeCircuit(), fastOptions())
	if err == nil {
		t.Fatal("expected the deadline to interrupt the flow")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v to take effect", elapsed)
	}
}
