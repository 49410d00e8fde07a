package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rficlayout/internal/cache"
	"rficlayout/internal/engine"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
)

// tinyNetlist is a minimal solvable circuit (PIN → M1 → POUT) that the full
// flow lays out in tens of milliseconds.
const tinyNetlist = `
circuit tiny
area 400 300
tech name=cmos90 t=5 width=10 delta=-4 pad=60
device M1 transistor 40 30
pin M1 in -20 0
pin M1 out 20 0
pad PIN
pad POUT
strip TL1 PIN.p M1.in length=130
strip TL2 M1.out POUT.p length=140
`

func fastConfig() Config {
	return Config{
		Workers:    2,
		QueueDepth: 8,
		SolveOptions: pilp.Options{
			ChainPoints:         3,
			MaxChainPoints:      3,
			StripTimeLimit:      2 * time.Second,
			PhaseTimeLimit:      5 * time.Second,
			MaxRefineIterations: 1,
		},
	}
}

func startServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postSolve(t *testing.T, url, body string) (*http.Response, solveResponse) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, sr
}

func TestSolveSyncAndWarmCacheHit(t *testing.T) {
	cfg := fastConfig()
	cfg.Cache = cache.NewLRU(16, 0)
	_, ts := startServer(t, cfg)

	resp, first := postSolve(t, ts.URL+"/v1/solve", tinyNetlist)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first solve: status %d (%s)", resp.StatusCode, first.Error)
	}
	if first.Status != "done" || first.CacheHit {
		t.Fatalf("first solve: status=%s cache_hit=%v, want done/false", first.Status, first.CacheHit)
	}
	if first.Layout == "" || !strings.HasPrefix(first.Layout, "layout tiny\n") {
		t.Fatalf("first solve returned no layout text: %q", first.Layout)
	}
	if first.Stats == nil || first.Stats.Nodes <= 0 || first.Stats.RuntimeNS <= 0 {
		t.Fatalf("first solve missing stats: %+v", first.Stats)
	}
	if first.Stats.WirelengthUM <= 0 {
		t.Errorf("wirelength = %v µm, want > 0", first.Stats.WirelengthUM)
	}

	// The warm request must hit the cache and return byte-identical layout
	// text — the deterministic-flow guarantee the cache relies on.
	resp, second := postSolve(t, ts.URL+"/v1/solve", tinyNetlist)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm solve: status %d (%s)", resp.StatusCode, second.Error)
	}
	if !second.CacheHit {
		t.Fatal("warm solve did not hit the cache")
	}
	if second.Layout != first.Layout {
		t.Errorf("warm cache hit is not byte-identical:\n--- first ---\n%s\n--- second ---\n%s", first.Layout, second.Layout)
	}
	if second.Stats == nil || second.Stats.Nodes != first.Stats.Nodes {
		t.Errorf("warm hit stats differ: %+v vs %+v", second.Stats, first.Stats)
	}

	// Reordering the netlist declarations must still hit the cache: the key
	// hashes the canonical form.
	reordered := strings.Replace(tinyNetlist, "strip TL1 PIN.p M1.in length=130\nstrip TL2 M1.out POUT.p length=140",
		"strip TL2 M1.out POUT.p length=140\nstrip TL1 PIN.p M1.in length=130", 1)
	if reordered == tinyNetlist {
		t.Fatal("test fixture not reordered")
	}
	_, third := postSolve(t, ts.URL+"/v1/solve", reordered)
	if !third.CacheHit || third.Layout != first.Layout {
		t.Errorf("reordered netlist missed the cache (hit=%v)", third.CacheHit)
	}
}

func TestSolveMalformedRequests(t *testing.T) {
	_, ts := startServer(t, fastConfig())
	tests := []struct {
		name     string
		body     string
		wantCode int
		wantIn   string // substring of the error message
	}{
		{"garbage keyword", "circuit x\nnonsense line here\n", http.StatusBadRequest, "unknown keyword"},
		{"empty body", "", http.StatusBadRequest, "no 'circuit' declaration"},
		{"fails validation", "circuit x\narea 100 100\nstrip TL1 A.p B.q length=50\n", http.StatusBadRequest, "no device"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			resp, sr := postSolve(t, ts.URL+"/v1/solve", tt.body)
			if resp.StatusCode != tt.wantCode {
				t.Errorf("status = %d, want %d", resp.StatusCode, tt.wantCode)
			}
			if !strings.Contains(sr.Error, tt.wantIn) {
				t.Errorf("error %q does not mention %q", sr.Error, tt.wantIn)
			}
		})
	}

	t.Run("wrong method", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/solve")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET /v1/solve = %d, want 405", resp.StatusCode)
		}
	})

	t.Run("oversized body", func(t *testing.T) {
		cfg := fastConfig()
		cfg.MaxBodyBytes = 64
		_, small := startServer(t, cfg)
		resp, _ := postSolve(t, small.URL+"/v1/solve", tinyNetlist)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized body = %d, want 413", resp.StatusCode)
		}
	})

	// Query validation must not depend on cache state: a malformed query
	// answers 400 on a cached circuit exactly as it does on a miss.
	t.Run("bad query on cache hit", func(t *testing.T) {
		cfg := fastConfig()
		cfg.Cache = cache.NewLRU(16, 0)
		_, cached := startServer(t, cfg)
		if resp, sr := postSolve(t, cached.URL+"/v1/solve", tinyNetlist); resp.StatusCode != http.StatusOK {
			t.Fatalf("warming solve: status %d (%s)", resp.StatusCode, sr.Error)
		}
		for _, q := range []string{"timeout=bogus", "async=maybe"} {
			resp, sr := postSolve(t, cached.URL+"/v1/solve?"+q, tinyNetlist)
			if resp.StatusCode != http.StatusBadRequest || sr.CacheHit {
				t.Errorf("?%s on a cached circuit = %d (cache_hit=%v), want 400", q, resp.StatusCode, sr.CacheHit)
			}
		}
	})
}

// TestSolveDeadlineExceeded checks that a solve the deadline ended answers
// 504, and that the status comes from the error's chain, not its text: a
// solver failure that only mentions a context error answers 500.
func TestSolveDeadlineExceeded(t *testing.T) {
	_, ts := startServer(t, fastConfig())
	resp, sr := postSolve(t, ts.URL+"/v1/solve?timeout=1ns", tinyNetlist)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d (%+v), want 504", resp.StatusCode, sr)
	}
	if sr.Status != "failed" || !strings.Contains(sr.Error, "deadline exceeded") {
		t.Errorf("response = %+v, want failed with deadline error", sr)
	}

	mentions := func(ctx context.Context, job engine.Job, logf func(string, ...interface{})) engine.Result {
		return engine.Result{ID: job.ID, Err: errors.New("gave up: context canceled upstream")}
	}
	s := newWithSolver(fastConfig(), mentions)
	ts2 := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts2.Close(); s.Close() })
	resp, sr = postSolve(t, ts2.URL+"/v1/solve", tinyNetlist)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Errorf("solver error naming a context error: status %d (%+v), want 500", resp.StatusCode, sr)
	}
}

func TestSolveAsyncAndJobLookup(t *testing.T) {
	_, ts := startServer(t, fastConfig())
	resp, sr := postSolve(t, ts.URL+"/v1/solve?async=1", tinyNetlist)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async solve: status %d, want 202", resp.StatusCode)
	}
	if sr.ID == "" || (sr.Status != "queued" && sr.Status != "running") {
		t.Fatalf("async response = %+v, want queued/running with an ID", sr)
	}

	deadline := time.Now().Add(30 * time.Second)
	var final solveResponse
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", sr.ID, final)
		}
		r, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(r.Body).Decode(&final)
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if final.Status == "done" || final.Status == "failed" {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if final.Status != "done" {
		t.Fatalf("job finished as %s: %s", final.Status, final.Error)
	}
	if final.Layout == "" || final.Stats == nil {
		t.Errorf("finished job missing layout/stats: %+v", final)
	}

	r, err := http.Get(ts.URL + "/v1/jobs/no-such-job")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", r.StatusCode)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	blocking := func(ctx context.Context, job engine.Job, logf func(string, ...interface{})) engine.Result {
		started <- struct{}{}
		select {
		case <-release:
		case <-ctx.Done():
		}
		return engine.Result{ID: job.ID, Name: job.Circuit.Name, Err: ctx.Err()}
	}
	cfg := fastConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	s := newWithSolver(cfg, blocking)
	ts := httptest.NewServer(s.Handler())
	defer func() {
		close(release)
		ts.Close()
		s.Close()
	}()

	// Distinct circuits per request: identical bodies would be coalesced by
	// the singleflight layer instead of stressing admission control.
	distinct := func(i int) string {
		return strings.Replace(tinyNetlist, "circuit tiny", fmt.Sprintf("circuit tiny%d", i), 1)
	}
	// First job occupies the single worker...
	resp, _ := postSolve(t, ts.URL+"/v1/solve?async=1", distinct(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 1: status %d", resp.StatusCode)
	}
	<-started
	// ...the second fills the depth-1 queue...
	resp, _ = postSolve(t, ts.URL+"/v1/solve?async=1", distinct(2))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job 2: status %d", resp.StatusCode)
	}
	// ...and the third must be rejected by admission control.
	resp, sr := postSolve(t, ts.URL+"/v1/solve?async=1", distinct(3))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job 3: status %d (%+v), want 503", resp.StatusCode, sr)
	}
	if !strings.Contains(sr.Error, "queue full") {
		t.Errorf("rejection error = %q", sr.Error)
	}
}

func TestHealthz(t *testing.T) {
	cfg := fastConfig()
	cfg.Cache = cache.NewLRU(16, 0)
	_, ts := startServer(t, cfg)
	postSolve(t, ts.URL+"/v1/solve", tinyNetlist)
	postSolve(t, ts.URL+"/v1/solve", tinyNetlist)

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" {
		t.Errorf("status = %q", h.Status)
	}
	if h.Workers != cfg.Workers || h.QueueCapacity != cfg.QueueDepth {
		t.Errorf("workers/queue = %d/%d, want %d/%d", h.Workers, h.QueueCapacity, cfg.Workers, cfg.QueueDepth)
	}
	if h.Solved != 1 || h.CacheHits != 1 || h.CacheMisses != 1 {
		t.Errorf("counters solved=%d hits=%d misses=%d, want 1/1/1", h.Solved, h.CacheHits, h.CacheMisses)
	}
}

// TestServerDeterministicAcrossRestart solves the same circuit on two
// independent servers and checks the layouts are byte-identical — the
// property that makes the cross-process cache exact.
func TestServerDeterministicAcrossRestart(t *testing.T) {
	var layouts [2]string
	for i := range layouts {
		_, ts := startServer(t, fastConfig())
		resp, sr := postSolve(t, ts.URL+"/v1/solve", tinyNetlist)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("server %d: status %d (%s)", i, resp.StatusCode, sr.Error)
		}
		layouts[i] = sr.Layout
	}
	if layouts[0] != layouts[1] {
		t.Error("two servers produced different layouts for the same circuit")
	}
}

func TestJobRetentionEviction(t *testing.T) {
	cfg := fastConfig()
	cfg.JobRetention = 2
	_, ts := startServer(t, cfg)

	var ids []string
	for i := 0; i < 4; i++ {
		// Distinct circuits so no cache/keys interfere; retention is about
		// the job store only.
		body := strings.Replace(tinyNetlist, "circuit tiny", fmt.Sprintf("circuit tiny%d", i), 1)
		resp, sr := postSolve(t, ts.URL+"/v1/solve", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: status %d (%s)", i, resp.StatusCode, sr.Error)
		}
		ids = append(ids, sr.ID)
	}
	evicted, kept := ids[0], ids[len(ids)-1]
	r, err := http.Get(ts.URL + "/v1/jobs/" + evicted)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("oldest job still present (%d), want evicted", r.StatusCode)
	}
	r, err = http.Get(ts.URL + "/v1/jobs/" + kept)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Errorf("newest job = %d, want 200", r.StatusCode)
	}
}

// TestCorruptCacheEntryDegradesToMiss locks in the contract that the cache
// is never a correctness dependency: an entry whose layout text does not
// parse is re-solved (and overwritten), not served.
func TestCorruptCacheEntryDegradesToMiss(t *testing.T) {
	cfg := fastConfig()
	lru := cache.NewLRU(16, 0)
	cfg.Cache = lru
	circuit, err := netlist.ParseString(tinyNetlist)
	if err != nil {
		t.Fatal(err)
	}
	key := cache.Key(circuit, cfg.SolveOptions)
	lru.Put(key, cache.Entry{Circuit: "tiny", Layout: []byte("not a layout file")})

	_, ts := startServer(t, cfg)
	resp, sr := postSolve(t, ts.URL+"/v1/solve", tinyNetlist)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, sr.Error)
	}
	if sr.CacheHit {
		t.Error("corrupt entry served as a cache hit")
	}
	if !strings.HasPrefix(sr.Layout, "layout tiny\n") {
		t.Errorf("re-solve did not produce a layout: %q", sr.Layout)
	}
	// The re-solve must have replaced the corrupt entry.
	if entry, ok := lru.Get(key); !ok || !strings.HasPrefix(string(entry.Layout), "layout tiny\n") {
		t.Error("corrupt entry not overwritten by the re-solve")
	}
}

// TestSingleflightSharesOneSolve is the ROADMAP's singleflight contract: N
// concurrent identical requests must run the solver exactly once and all
// receive that one result.
func TestSingleflightSharesOneSolve(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	blocking := func(ctx context.Context, job engine.Job, logf func(string, ...interface{})) engine.Result {
		calls.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return engine.Result{ID: job.ID, Err: ctx.Err()}
		}
		return engineSolver(ctx, job, logf)
	}
	cfg := fastConfig()
	cfg.Workers = 4
	s := newWithSolver(cfg, blocking)
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	const followers = 4
	var wg sync.WaitGroup
	codes := make([]int, followers)
	bodies := make([]solveResponse, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, sr := postSolve(t, ts.URL+"/v1/solve", tinyNetlist)
			codes[i], bodies[i] = resp.StatusCode, sr
		}(i)
	}
	// Wait until every request is attached to the one shared job before
	// letting the solver finish — releasing earlier would let a straggler
	// miss the inflight window and honestly start a second solve.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.inflightMu.Lock()
		var waiters int64
		for _, j := range s.inflight {
			waiters = j.waiters.Load()
		}
		n := len(s.inflight)
		s.inflightMu.Unlock()
		if n == 1 && waiters == followers {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("requests never converged on one job (%d inflight, %d waiters)", n, waiters)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("solver called %d times for %d identical requests", got, followers)
	}
	for i := 0; i < followers; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, codes[i], bodies[i].Error)
		}
		if bodies[i].Layout != bodies[0].Layout || bodies[i].Layout == "" {
			t.Errorf("request %d received a different layout", i)
		}
		if bodies[i].ID != bodies[0].ID {
			t.Errorf("request %d answered from job %s, want shared job %s", i, bodies[i].ID, bodies[0].ID)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Coalesced != followers-1 {
		t.Errorf("coalesced = %d, want %d", h.Coalesced, followers-1)
	}
	if h.Solved != 1 {
		t.Errorf("solved = %d, want 1", h.Solved)
	}
}

// TestFinishedJobLeavesInflightBeforeWaking: a client a finished job wakes
// may retry at once, so by then the job must be out of the singleflight
// index — a retry that still found it would join the finished job and get
// its stale answer back, a failure for a failed job. The test holds the
// index lock while the job completes: the waiters must stay asleep until
// the job can leave the index.
func TestFinishedJobLeavesInflightBeforeWaking(t *testing.T) {
	s := New(fastConfig())
	defer s.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j := &job{id: "j1", key: "k", ctx: ctx, cancel: cancel, done: make(chan struct{}), status: statusRunning}
	s.inflight[j.key] = j
	s.jobs.add(j)

	s.inflightMu.Lock()
	completed := make(chan struct{})
	go func() {
		defer close(completed)
		s.finishJob(j, &solveResponse{ID: j.id, Status: string(statusFailed), Error: "injected"})
	}()
	select {
	case <-j.done:
		s.inflightMu.Unlock()
		t.Fatal("the job woke its waiters while it was still in the singleflight index")
	case <-time.After(100 * time.Millisecond):
	}
	s.inflightMu.Unlock()
	<-completed
	<-j.done
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if s.inflight[j.key] != nil {
		t.Error("a finished job is still in the singleflight index")
	}
}

// TestSingleflightAsyncJoinsLeader checks an async request for an in-flight
// circuit returns the leader's job instead of admitting a duplicate.
func TestSingleflightAsyncJoinsLeader(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, job engine.Job, logf func(string, ...interface{})) engine.Result {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return engineSolver(ctx, job, logf)
	}
	cfg := fastConfig()
	s := newWithSolver(cfg, blocking)
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	resp, leader := postSolve(t, ts.URL+"/v1/solve?async=1", tinyNetlist)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("leader: status %d", resp.StatusCode)
	}
	resp, follower := postSolve(t, ts.URL+"/v1/solve?async=1", tinyNetlist)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("follower: status %d", resp.StatusCode)
	}
	if follower.ID != leader.ID {
		t.Errorf("follower got job %s, want the leader's %s", follower.ID, leader.ID)
	}
	close(release)
}

// TestHealthzCacheTierStats checks /healthz surfaces the cache tier's own
// counters (hits, misses, evictions, footprint) alongside the server's.
func TestHealthzCacheTierStats(t *testing.T) {
	cfg := fastConfig()
	cfg.Cache = cache.NewLRU(16, 0)
	_, ts := startServer(t, cfg)
	postSolve(t, ts.URL+"/v1/solve", tinyNetlist) // miss + put
	postSolve(t, ts.URL+"/v1/solve", tinyNetlist) // hit

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Cache == nil {
		t.Fatal("healthz has no cache tier stats")
	}
	if h.Cache.Hits != 1 || h.Cache.Misses != 1 {
		t.Errorf("cache tier stats = %+v, want 1 hit / 1 miss", h.Cache)
	}
	if h.Cache.Entries != 1 || h.Cache.Bytes <= 0 {
		t.Errorf("cache footprint = %d entries / %d bytes, want 1 entry", h.Cache.Entries, h.Cache.Bytes)
	}
}

// TestSingleflightFollowerKeepsOwnTimeout pins the per-request 504 contract
// under coalescing: a follower with a short ?timeout must time out on its
// own schedule even though the shared solve keeps running under the
// leader's deadline.
func TestSingleflightFollowerKeepsOwnTimeout(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, job engine.Job, logf func(string, ...interface{})) engine.Result {
		select {
		case <-release:
		case <-ctx.Done():
			return engine.Result{ID: job.ID, Err: ctx.Err()}
		}
		return engineSolver(ctx, job, logf)
	}
	cfg := fastConfig()
	s := newWithSolver(cfg, blocking)
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	leaderDone := make(chan solveResponse, 1)
	go func() {
		_, sr := postSolve(t, ts.URL+"/v1/solve", tinyNetlist)
		leaderDone <- sr
	}()
	// Wait for the leader's job to be in flight before the follower joins.
	deadline := time.Now().Add(10 * time.Second)
	for {
		s.inflightMu.Lock()
		n := len(s.inflight)
		s.inflightMu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("leader job never registered in flight")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	resp, sr := postSolve(t, ts.URL+"/v1/solve?timeout=150ms", tinyNetlist)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("follower status = %d (%+v), want 504", resp.StatusCode, sr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("follower waited %v for a 150ms timeout", elapsed)
	}

	// The shared solve must have survived the follower's departure: release
	// it and the leader gets a real result.
	close(release)
	select {
	case sr := <-leaderDone:
		if sr.Status != "done" || sr.Layout == "" {
			t.Errorf("leader response after follower timeout: %+v", sr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("leader never finished")
	}
}
