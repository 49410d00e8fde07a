package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"rficlayout/internal/faultinject"
	"rficlayout/internal/layout"
)

// TestRunConvertsPanicToPanicError checks the panic firewall: a panicking
// solve becomes a *PanicError carrying the panic value and the goroutine
// stack, and neighbouring jobs are untouched.
func TestRunConvertsPanicToPanicError(t *testing.T) {
	plan, err := faultinject.ParsePlan(faultinject.PointEnginePanic + "=1/1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.New(plan, 1))
	t.Cleanup(faultinject.Disable)

	// Parallel:1 keeps job order deterministic: the injected panic (budget 1)
	// kills exactly the first job.
	results := Run(context.Background(), []Job{
		{Circuit: testCircuit("victim"), Options: fastOptions()},
		{Circuit: testCircuit("survivor"), Options: fastOptions()},
	}, Options{Parallel: 1})

	var pe *PanicError
	if !errors.As(results[0].Err, &pe) {
		t.Fatalf("panicked job err = %v (%T), want *PanicError", results[0].Err, results[0].Err)
	}
	if pe.Job != "victim" {
		t.Errorf("PanicError.Job = %q, want victim", pe.Job)
	}
	if want := "faultinject: injected panic at engine.panic"; !strings.Contains(results[0].Err.Error(), want) {
		t.Errorf("error %q does not carry the deterministic panic message %q", results[0].Err, want)
	}
	if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "runOne") {
		t.Errorf("PanicError.Stack does not capture the solve stack:\n%s", pe.Stack)
	}
	if results[1].Err != nil {
		t.Fatalf("neighbour of panicked job failed: %v", results[1].Err)
	}
	if results[1].Result.Layout == nil || !results[1].Result.Layout.Complete() {
		t.Error("neighbour of panicked job produced an incomplete layout")
	}
}

// TestRunSurvivesConcPanicInjection drives the deeper injection point — a
// panic inside the shared worker pool, below pilp — through the same
// firewall, and checks that once the fault budget is spent the identical
// job solves to the byte-identical layout (the chaos battery's core claim).
func TestRunSurvivesConcPanicInjection(t *testing.T) {
	baseline := Run(context.Background(), []Job{{Circuit: testCircuit("c"), Options: fastOptions()}}, Options{Parallel: 1})
	if baseline[0].Err != nil {
		t.Fatalf("baseline solve failed: %v", baseline[0].Err)
	}

	plan, err := faultinject.ParsePlan(faultinject.PointConcPanic + "=1/1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.New(plan, 2))
	t.Cleanup(faultinject.Disable)

	faulted := Run(context.Background(), []Job{{Circuit: testCircuit("c"), Options: fastOptions()}}, Options{Parallel: 1})
	var pe *PanicError
	if !errors.As(faulted[0].Err, &pe) {
		t.Fatalf("conc-panicked job err = %v, want *PanicError", faulted[0].Err)
	}

	// Budget exhausted: the re-solve must reproduce the fault-free layout.
	healed := Run(context.Background(), []Job{{Circuit: testCircuit("c"), Options: fastOptions()}}, Options{Parallel: 1})
	if healed[0].Err != nil {
		t.Fatalf("re-solve after faults cleared failed: %v", healed[0].Err)
	}
	if layout.Format(healed[0].Result.Layout) != layout.Format(baseline[0].Result.Layout) {
		t.Error("layout after faults cleared differs from the fault-free baseline")
	}
}

// TestRunPartialPassthrough checks that pilp's anytime Partial flag rides
// through the engine result. The flow's context is cancelled right after
// construction (via the Logf hook — deterministic, unlike a tiny deadline),
// so with AcceptPartial the job returns the constructed layout marked
// partial instead of failing.
func TestRunPartialPassthrough(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := fastOptions()
	opts.AcceptPartial = true
	opts.Logf = func(format string, args ...interface{}) {
		if strings.Contains(format, "constructed initial layout") {
			cancel()
		}
	}
	results := Run(ctx, []Job{{Circuit: testCircuit("p"), Options: opts}}, Options{Parallel: 1})
	r := results[0]
	if r.Err != nil {
		t.Fatalf("AcceptPartial job failed: %v", r.Err)
	}
	if r.Result == nil || !r.Result.Partial {
		t.Fatalf("partial flow result not passed through: %+v", r.Result)
	}
	if r.Result.Layout == nil {
		t.Fatal("partial result carries no layout")
	}
	if r.Result.PartialPhase == "" {
		t.Error("partial result names no phase")
	}

	// Without AcceptPartial the same cancellation is an error, as before.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	strict := fastOptions()
	strict.Logf = func(format string, args ...interface{}) {
		if strings.Contains(format, "constructed initial layout") {
			cancel2()
		}
	}
	results2 := Run(ctx2, []Job{{Circuit: testCircuit("p"), Options: strict}}, Options{Parallel: 1})
	if results2[0].Err == nil {
		t.Fatal("cancellation without AcceptPartial did not fail the job")
	}
	if results2[0].Result != nil {
		t.Error("failed job carries a flow result")
	}
}
