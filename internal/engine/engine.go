// Package engine exposes a batch API over the progressive layout flow: many
// circuits are solved concurrently on a bounded worker pool, each job fully
// isolated from the others. It is the serving-side entry point of the solver
// stack (engine → pilp → ilpmodel → milp → lp) — cmd/rficgen and
// cmd/rficbench drive it via their -parallel flag, and a future service
// front-end can feed it straight from a request queue.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"rficlayout/internal/faultinject"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
)

// PanicError is the job error produced when a solve panics: the panic value
// plus the goroutine stack captured at recovery, so an isolated panic is
// still fully diagnosable from the job result (or the server log) alone.
// Serving layers match it with errors.As to count panics separately from
// ordinary solve failures.
type PanicError struct {
	// Job names the job that panicked.
	Job string
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the stack of the panicking goroutine (debug.Stack output).
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: job %s panicked: %v", e.Job, e.Value)
}

// Job is one circuit to lay out.
type Job struct {
	// ID is an optional caller-assigned identifier, echoed in the Result.
	// Serving front-ends use it to correlate queued requests with results;
	// the engine itself only passes it through.
	ID string
	// Name identifies the job in its Result; it defaults to the circuit name.
	Name string
	// Circuit is the circuit to solve. A nil circuit fails the job without
	// affecting the batch.
	Circuit *netlist.Circuit
	// Options tune the progressive flow for this job. In a batch of more
	// than one job, a zero Workers is pinned to one worker per flow so the
	// nested pools do not oversubscribe the machine (the flow's output does
	// not depend on its worker count, so this only affects scheduling).
	Options pilp.Options
}

func (j Job) name() string {
	if j.Name != "" {
		return j.Name
	}
	if j.Circuit != nil {
		return j.Circuit.Name
	}
	return "<nil>"
}

// Result is the outcome of one Job, in the same position as its job in the
// input slice.
type Result struct {
	// ID echoes the job's caller-assigned identifier.
	ID   string
	Name string
	// Runtime is the job's wall-clock time as measured by the engine: the
	// full solve including panics and failures, so it is populated even when
	// Err is non-nil (unlike Result.Runtime, which only exists on success).
	Runtime time.Duration
	// Nodes is the total branch-and-bound node count of the job's flow, zero
	// when the job failed before solving.
	Nodes int
	// LP aggregates the flow's simplex-level effort counters
	// (pilp.Result.LP); zero when the job failed before solving.
	LP pilp.LPStats
	// Partial reports that the flow was interrupted by deadline or
	// cancellation and Result holds the best layout found so far rather than
	// the fully refined one (pilp.Result.Partial; requires
	// Options.AcceptPartial).
	Partial bool
	Result  *pilp.Result
	Err     error
}

// Options tunes a Run.
type Options struct {
	// Parallel bounds the number of jobs in flight at once. Zero means
	// GOMAXPROCS; one runs the batch sequentially.
	Parallel int
	// Logf, when non-nil, receives per-job progress messages; it may be
	// called from concurrent workers.
	Logf func(format string, args ...interface{})
}

func (o Options) parallel() int {
	if o.Parallel > 0 {
		return o.Parallel
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) logf(format string, args ...interface{}) {
	if o.Logf != nil {
		o.Logf(format, args...)
	}
}

// Run solves every job and returns one Result per job, in input order. Jobs
// run concurrently on at most opts.Parallel workers, and each is isolated: a
// failing — even panicking — solve is reported in its own Result and leaves
// every other job untouched. Cancelling the context stops jobs at their next
// solve boundary and fails not-yet-started jobs with the context error.
func Run(ctx context.Context, jobs []Job, opts Options) []Result {
	results := make([]Result, len(jobs))
	sem := make(chan struct{}, opts.parallel())
	var wg sync.WaitGroup
	for i := range jobs {
		results[i].ID = jobs[i].ID
		results[i].Name = jobs[i].name()
		if err := ctx.Err(); err != nil {
			results[i].Err = err
			continue
		}
		// With several jobs the engine owns the parallelism dimension: each
		// flow is pinned to one worker so cross-job concurrency (bounded by
		// opts.Parallel) is the only source of load. This also makes
		// Parallel=1 genuinely sequential.
		job := jobs[i]
		if len(jobs) > 1 && job.Options.Workers == 0 {
			job.Options.Workers = 1
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, job Job) {
			defer wg.Done()
			start := time.Now()
			results[i].Result, results[i].Err = runOne(ctx, job)
			results[i].Runtime = time.Since(start)
			if results[i].Result != nil {
				results[i].Nodes = results[i].Result.Nodes
				results[i].LP = results[i].Result.LP
				results[i].Partial = results[i].Result.Partial
			}
			if results[i].Err != nil {
				opts.logf("engine: job %s failed after %v: %v", results[i].Name, results[i].Runtime, results[i].Err)
			} else {
				opts.logf("engine: job %s done in %v (%d nodes, %d LP pivots)", results[i].Name, results[i].Runtime, results[i].Nodes, results[i].LP.Pivots)
			}
			<-sem
		}(i, job)
	}
	wg.Wait()
	return results
}

// runOne solves a single job, converting panics into errors so one bad
// circuit cannot take down the batch.
func runOne(ctx context.Context, job Job) (res *pilp.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &PanicError{Job: job.name(), Value: r, Stack: debug.Stack()}
		}
	}()
	if job.Circuit == nil {
		return nil, fmt.Errorf("engine: job %s has no circuit", job.name())
	}
	faultinject.PanicAt(faultinject.PointEnginePanic)
	return pilp.GenerateCtx(ctx, job.Circuit, job.Options)
}
