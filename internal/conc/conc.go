// Package conc holds the solver's one concurrency primitive: a bounded worker
// pool whose scheduling never leaks into results. The pilp flow fans its
// independent per-strip subproblems out on it; milp's branch and bound runs
// sequentially inside each of those jobs.
package conc

import (
	"context"
	"sync"
	"time"

	"rficlayout/internal/faultinject"
)

// runJob is every job invocation's single entry: both the sequential and the
// pooled path go through it so the fault-injection points (a scheduling delay
// that must never change results, and a job panic that exercises the callers'
// isolation layers) fire identically regardless of worker count.
func runJob(fn func(int), i int) {
	faultinject.SleepAt(faultinject.PointConcDelay, time.Millisecond)
	faultinject.PanicAt(faultinject.PointConcPanic)
	fn(i)
}

// ForEach executes fn(0..n-1) on a pool of at most workers goroutines and
// waits for all of them. With one worker (or one job) it degrades to a plain
// sequential loop. Jobs must be independent: each writes only its own slot of
// whatever result slice the caller provides. Once the context is cancelled,
// jobs that have not started yet are skipped — their result slots stay zero,
// which callers must treat as "not evaluated". A panic in any job is
// re-raised on the calling goroutine after the pool drains, so callers (and
// their recover handlers) observe it exactly as from a sequential loop.
func ForEach(ctx context.Context, workers, n int, fn func(int)) {
	if n == 0 {
		return
	}
	if workers <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			runJob(fn, i)
		}
		return
	}
	var (
		sem      = make(chan struct{}, workers)
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal interface{}
	)
	for i := 0; i < n; i++ {
		if ctx.Err() != nil {
			break
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
				}
				<-sem
			}()
			runJob(fn, i)
		}(i)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
