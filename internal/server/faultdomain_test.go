package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"rficlayout/internal/cache"
	"rficlayout/internal/engine"
	"rficlayout/internal/faultinject"
)

// armFaults installs a fault plan globally for one test. Chaos tests share
// the process-global registry, so none of them may run in parallel.
func armFaults(t *testing.T, spec string, seed int64) *faultinject.Registry {
	t.Helper()
	plan, err := faultinject.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	r := faultinject.New(plan, seed)
	faultinject.Enable(r)
	t.Cleanup(faultinject.Disable)
	return r
}

func getHealth(t *testing.T, url string) healthResponse {
	t.Helper()
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	return h
}

// TestPanicIsolationKeepsServing checks the panic firewall end to end: a
// panicking solve returns a 500 naming the panic, the panics counter
// increments, and the very next solve on the same server succeeds.
func TestPanicIsolationKeepsServing(t *testing.T) {
	var calls int32
	var mu sync.Mutex
	flaky := func(ctx context.Context, job engine.Job, logf func(string, ...interface{})) engine.Result {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			panic("solver exploded")
		}
		return engineSolver(ctx, job, logf)
	}
	cfg := fastConfig()
	s := newWithSolver(cfg, flaky)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	resp, sr := postSolve(t, ts.URL+"/v1/solve", tinyNetlist)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicked solve: status %d (%+v), want 500", resp.StatusCode, sr)
	}
	if !strings.Contains(sr.Error, "panicked") {
		t.Errorf("panicked solve error = %q, want it to say panicked", sr.Error)
	}
	if h := getHealth(t, ts.URL); h.Panics != 1 {
		t.Errorf("healthz panics = %d, want 1", h.Panics)
	}
	// The process survived; the next request solves normally.
	resp, sr = postSolve(t, ts.URL+"/v1/solve", tinyNetlist)
	if resp.StatusCode != http.StatusOK || sr.Status != "done" {
		t.Fatalf("solve after isolated panic: status %d/%s (%s)", resp.StatusCode, sr.Status, sr.Error)
	}
}

// TestPanicErrorFromEngineCounted checks the other panic path: the engine
// already recovered the panic into an engine.PanicError job error, and the
// server still charges the panics counter.
func TestPanicErrorFromEngineCounted(t *testing.T) {
	armFaults(t, faultinject.PointEnginePanic+"=1/1", 21)
	_, ts := startServer(t, fastConfig())
	resp, sr := postSolve(t, ts.URL+"/v1/solve", tinyNetlist)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d (%+v), want 500", resp.StatusCode, sr)
	}
	if !strings.Contains(sr.Error, "injected panic at engine.panic") {
		t.Errorf("error = %q, want the deterministic injected-panic message", sr.Error)
	}
	if h := getHealth(t, ts.URL); h.Panics != 1 {
		t.Errorf("healthz panics = %d, want 1", h.Panics)
	}
	if h := getHealth(t, ts.URL); h.Faults[faultinject.PointEnginePanic].Fired != 1 {
		t.Errorf("healthz faults = %+v, want engine.panic fired once", h.Faults)
	}
}

// TestAcceptPartialParam checks the anytime plumbing: accept_partial=1 sets
// the flow option, a partial result is flagged in the response with its gap
// stats, and partial layouts are never written to the cache.
func TestAcceptPartialParam(t *testing.T) {
	var solves int32
	var mu sync.Mutex
	partialSolver := func(ctx context.Context, job engine.Job, logf func(string, ...interface{})) engine.Result {
		mu.Lock()
		solves++
		mu.Unlock()
		if !job.Options.AcceptPartial {
			return engine.Result{ID: job.ID, Err: fmt.Errorf("AcceptPartial not plumbed through")}
		}
		// Deterministic partial: cancel after construction via the log hook.
		jctx, cancel := context.WithCancel(ctx)
		defer cancel()
		job.Options.Logf = func(format string, args ...interface{}) {
			if strings.Contains(format, "constructed initial layout") {
				cancel()
			}
		}
		res := engine.Run(jctx, []engine.Job{job}, engine.Options{Parallel: 1})[0]
		return res
	}
	cfg := fastConfig()
	cfg.Cache = cache.NewLRU(16, 0)
	s := newWithSolver(cfg, partialSolver)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	resp, sr := postSolve(t, ts.URL+"/v1/solve?accept_partial=1", tinyNetlist)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial solve: status %d (%s)", resp.StatusCode, sr.Error)
	}
	if !sr.Partial {
		t.Fatal("response not marked partial")
	}
	if sr.Layout == "" {
		t.Fatal("partial response carries no layout")
	}
	if sr.Stats == nil || sr.Stats.PartialPhase == "" {
		t.Errorf("partial response names no phase: %+v", sr.Stats)
	}

	// The partial result must not have been cached: the same request solves
	// again rather than hitting the cache.
	resp, sr = postSolve(t, ts.URL+"/v1/solve?accept_partial=1", tinyNetlist)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second partial solve: status %d (%s)", resp.StatusCode, sr.Error)
	}
	if sr.CacheHit {
		t.Fatal("partial result was served from the cache")
	}
	mu.Lock()
	n := solves
	mu.Unlock()
	if n != 2 {
		t.Errorf("solver ran %d times, want 2 (partial results must not cache)", n)
	}

	resp, _ = postSolve(t, ts.URL+"/v1/solve?accept_partial=bogus", tinyNetlist)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus accept_partial: status %d, want 400", resp.StatusCode)
	}
}

// TestGracefulShutdownInflight races Close against active workers: an
// in-flight synchronous solve must get a definite, clean response (its
// result or a shutdown/cancellation failure — never a hang or a crash) and
// every admitted async job must end in a terminal state.
func TestGracefulShutdownInflight(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	blocking := func(ctx context.Context, job engine.Job, logf func(string, ...interface{})) engine.Result {
		started <- struct{}{}
		select {
		case <-release:
			return engine.Result{ID: job.ID, Name: job.Circuit.Name, Err: fmt.Errorf("released without result")}
		case <-ctx.Done():
			return engine.Result{ID: job.ID, Name: job.Circuit.Name, Err: ctx.Err()}
		}
	}
	cfg := fastConfig()
	cfg.Workers = 2
	s := newWithSolver(cfg, blocking)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer close(release)

	distinct := func(i int) string {
		return strings.Replace(tinyNetlist, "circuit tiny", fmt.Sprintf("circuit tiny%d", i), 1)
	}

	// One sync solve and one async job, both occupying workers.
	syncDone := make(chan solveResponse, 1)
	go func() {
		_, sr := postSolve(t, ts.URL+"/v1/solve", distinct(1))
		syncDone <- sr
	}()
	resp, async := postSolve(t, ts.URL+"/v1/solve?async=1", distinct(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async admit: status %d", resp.StatusCode)
	}
	<-started
	<-started

	// Close races both active workers.
	s.Close()

	select {
	case sr := <-syncDone:
		if sr.Status == string(statusQueued) || sr.Status == string(statusRunning) {
			t.Errorf("sync request resolved in non-terminal state %q", sr.Status)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("sync request hung across Close")
	}

	// The async job must be queryable and terminal: Close cancelled its
	// context, the blocking solver returned the context error, and runJob
	// recorded it before Close's wg.Wait returned.
	j, ok := s.jobs.get(async.ID)
	if !ok {
		t.Fatalf("async job %s lost across shutdown", async.ID)
	}
	snap := j.snapshot()
	if snap.Status != string(statusFailed) && snap.Status != string(statusDone) {
		t.Errorf("async job state %q after Close, want terminal", snap.Status)
	}

	// Admission after Close answers cleanly instead of queueing forever.
	resp, sr := postSolve(t, ts.URL+"/v1/solve", distinct(3))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("post-Close solve: status %d (%+v), want 503", resp.StatusCode, sr)
	}
}

// chaosSeed pins the fault schedule of both chaos batteries.
const chaosSeed = 42

// chaosFaultSpec is the single-node battery's schedule: worker-pool and
// engine panics, injected admission failures, torn cache writes, and
// transient cache read errors (absorbed by the Dir tier's bounded retry).
// Every budget is finite, so the run always clears the faults and must
// return to byte-identical service.
const chaosFaultSpec = "conc.panic=0.25/3,engine.panic=0.5/2,server.admit=0.5/2," +
	"cache.dir.torn=0.5/2,cache.dir.read=1/2"

// chaosCircuit is the i-th chaos circuit: tinyNetlist under a distinct name,
// so requests are neither coalesced by singleflight nor cross-served from
// the cache.
func chaosCircuit(i int) string {
	return strings.Replace(tinyNetlist, "circuit tiny", fmt.Sprintf("circuit chaos%d", i), 1)
}

// chaosRecord is one request of a chaos battery. It carries no wall-clock
// fields: every field is a pure function of the fault seed, so a replay at
// the same seed must reproduce the log exactly.
type chaosRecord struct {
	Round    int    `json:"round"`
	Circuit  string `json:"circuit"`
	Attempts int    `json:"attempts"`
	Status   string `json:"status"`
	CacheHit bool   `json:"cache_hit"`
	Partial  bool   `json:"partial"`
	Match    bool   `json:"match"`
	Proxied  bool   `json:"proxied,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
	Owner    string `json:"owner,omitempty"`
}

// solveWithRetry drives one chaos request through the fault schedule and
// records it, Match comparing the layout with the fault-free baseline. 503s
// and panic 500s are retryable by design; any other status, a dead server
// or ten failed attempts fail the test.
func solveWithRetry(t *testing.T, url string, round int, name, body, baseline string) chaosRecord {
	t.Helper()
	rec := chaosRecord{Round: round, Circuit: name}
	for rec.Attempts = 1; rec.Attempts <= 10; rec.Attempts++ {
		resp, sr := postSolve(t, url+"/v1/solve", body)
		switch resp.StatusCode {
		case http.StatusOK:
			rec.Status, rec.CacheHit, rec.Partial, rec.Match = sr.Status, sr.CacheHit, sr.Partial, sr.Layout == baseline
			rec.Proxied, rec.Degraded, rec.Owner = sr.Proxied, sr.Degraded, sr.Owner
			return rec
		case http.StatusServiceUnavailable, http.StatusInternalServerError:
		default:
			t.Fatalf("round %d %s: unexpected status %d (%s)", round, name, resp.StatusCode, sr.Error)
		}
	}
	t.Fatalf("round %d %s: no success in 10 attempts", round, name)
	return rec
}

// chaosRun is what one pass of a chaos battery leaves for the replay check:
// its request log and its fired-fault schedule.
type chaosRun struct {
	log      []chaosRecord
	schedule string
}

// finishChaos closes one battery pass: every armed point must have fired at
// least once (a plan that stops reaching a point no longer tests it), and
// the registry's schedule is rendered for the replay check.
func finishChaos(t *testing.T, reg *faultinject.Registry, log []chaosRecord) chaosRun {
	t.Helper()
	for point, c := range reg.Counts() {
		if c.Fired < 1 {
			t.Errorf("point %s never fired (%d hits)", point, c.Hits)
		}
	}
	var schedule strings.Builder
	if err := reg.WriteSchedule(&schedule); err != nil {
		t.Fatal(err)
	}
	return chaosRun{log: log, schedule: schedule.String()}
}

// requireReplay runs a chaos battery twice at the same fault seed, each pass
// in its own subtest so its servers, Dir caches and registry are fresh, and
// requires identical request logs and byte-identical fault schedules. On a
// mismatch both passes are logged.
func requireReplay(t *testing.T, battery func(t *testing.T, seed int64) chaosRun) {
	t.Helper()
	var runs [2]chaosRun
	for i := range runs {
		i := i
		if !t.Run(fmt.Sprintf("replay%d", i+1), func(t *testing.T) { runs[i] = battery(t, chaosSeed) }) {
			t.FailNow()
		}
	}
	if slices.Equal(runs[0].log, runs[1].log) && runs[0].schedule == runs[1].schedule {
		return
	}
	for i, run := range runs {
		var b strings.Builder
		for _, rec := range run.log {
			line, _ := json.Marshal(rec)
			b.Write(append(line, '\n'))
		}
		t.Logf("replay %d request log:\n%sreplay %d fault schedule:\n%s", i+1, b.String(), i+1, run.schedule)
	}
	t.Error("chaos battery did not replay identically at the same seed")
}

// TestChaosScheduleSurvival is the single-node chaos battery: a seeded
// schedule of injected panics, admission failures, torn cache writes and
// cache read errors runs against a live server with a persistent cache, 3
// circuits x 8 rounds, the client retrying through the faults. Afterwards
// every /healthz counter must account exactly for every injected fault, every
// layout must be byte-identical to a fault-free baseline, and a second pass
// at the same seed must replay the request log and fault schedule exactly.
func TestChaosScheduleSurvival(t *testing.T) {
	const circuits, rounds = 3, 8
	baseline := make([]string, circuits)
	_, base := startServer(t, fastConfig())
	for i := range baseline {
		resp, sr := postSolve(t, base.URL+"/v1/solve", chaosCircuit(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("baseline circuit %d: status %d (%s)", i, resp.StatusCode, sr.Error)
		}
		baseline[i] = sr.Layout
	}

	requireReplay(t, func(t *testing.T, seed int64) chaosRun {
		// Persistent Dir cache only (a memory tier would mask torn disk
		// entries), pool of 2 so flows are pinned sequential: one injected
		// conc panic aborts exactly one solve, keeping the accounting exact.
		dir, err := cache.NewDir(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg := fastConfig()
		cfg.Cache = dir
		reg := armFaults(t, chaosFaultSpec, seed)
		_, ts := startServer(t, cfg)

		var log []chaosRecord
		for r := 0; r < rounds; r++ {
			for i := 0; i < circuits; i++ {
				rec := solveWithRetry(t, ts.URL, r, fmt.Sprintf("chaos%d", i), chaosCircuit(i), baseline[i])
				if rec.Partial || !rec.Match {
					t.Errorf("round %d circuit %d: partial=%v, matches fault-free baseline=%v", r, i, rec.Partial, rec.Match)
				}
				log = append(log, rec)
			}
		}

		counts := reg.Counts()
		h := getHealth(t, ts.URL)
		// Every injected fault is accounted for on /healthz:
		// each fired panic point killed exactly one solve,
		wantPanics := counts[faultinject.PointConcPanic].Fired + counts[faultinject.PointEnginePanic].Fired
		if h.Panics != wantPanics {
			t.Errorf("healthz panics = %d, want %d (injected conc+engine panics)", h.Panics, wantPanics)
		}
		// each injected admission failure was one rejection,
		if h.Rejected != counts[faultinject.PointServerAdmit].Fired {
			t.Errorf("healthz rejected = %d, want %d (injected admission failures)", h.Rejected, counts[faultinject.PointServerAdmit].Fired)
		}
		// and each torn write was detected and quarantined on a later read.
		if h.Cache == nil || h.Cache.Corrupt != counts[faultinject.PointCacheTorn].Fired {
			t.Errorf("healthz cache = %+v, want corrupt = %d (torn writes)", h.Cache, counts[faultinject.PointCacheTorn].Fired)
		}
		// The faults snapshot rides on /healthz for the harness to reconcile.
		if len(h.Faults) != len(counts) {
			t.Errorf("healthz faults = %+v, want all %d armed points", h.Faults, len(counts))
		}
		return finishChaos(t, reg, log)
	})
}
