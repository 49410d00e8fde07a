// Package server is the HTTP serving front-end over the batch engine: it
// accepts netlists, runs them through a bounded admission queue feeding a
// worker pool over engine.Run, honors per-request deadlines via context, and
// returns layouts plus solve stats as JSON. A content-addressed result cache
// (internal/cache) sits in front of the engine — the flow is deterministic,
// so cache hits are byte-identical to re-solving.
//
// Endpoints:
//
//	POST /v1/solve        body: circuit text; query: timeout=DUR, async=1
//	GET  /v1/jobs/{id}    status/result of an admitted job
//	GET  /healthz         liveness plus queue/worker/cache/cluster counters
//	GET  /readyz          routing readiness: ready / draining / not_ready
//
// Status rule. A job's response records its HTTP status once, where the
// outcome is decided, and leaves through writeResult:
//
//	200  done solve, cache hit, in-flight job; /healthz; a ready /readyz
//	202  async solve admitted, or joined to one in flight
//	400  malformed netlist, timeout, async or accept_partial value, or job ID
//	404  unknown or evicted job
//	405  wrong method
//	413  netlist over the body limit
//	500  solve failed, panicked or returned no layout
//	503  admission or shutdown rejection (wraps errUnavailable); a draining
//	     or not-ready /readyz
//	504  deadline or cancellation (errors.Is finds a context error), or a
//	     sync request whose own wait ran out first
//
// writeJSON adds a Retry-After hint to every 503.
//
// With a cluster configured (internal/cluster), solves whose content address
// is owned by a remote peer are forwarded there and answered from the owner's
// cache-affine tier; an unreachable owner degrades to a local solve.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rficlayout/internal/cache"
	"rficlayout/internal/cluster"
	"rficlayout/internal/engine"
	"rficlayout/internal/faultinject"
	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
)

// Config tunes a Server.
type Config struct {
	// Workers is the solver worker pool size: how many solves run at once.
	// Zero means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; a full queue rejects new solves
	// with 503 instead of queueing unboundedly. Zero means 64.
	QueueDepth int
	// MaxSolveTime is the hard per-job wall-clock ceiling; request timeouts
	// may only shorten it. Zero means 2 minutes.
	MaxSolveTime time.Duration
	// SolveOptions is the base progressive-flow configuration applied to
	// every request. Its Workers field is overridden by the server (flows
	// are pinned to one worker when the pool itself is parallel).
	SolveOptions pilp.Options
	// Cache, when non-nil, serves repeated circuits without re-solving and
	// stores every successful solve.
	Cache cache.Cache
	// JobRetention bounds how many finished jobs stay queryable under
	// /v1/jobs. Zero means 256.
	JobRetention int
	// MaxBodyBytes bounds the accepted netlist size. Zero means 1 MiB.
	MaxBodyBytes int64
	// Logf, when non-nil, receives server and solver progress messages; it
	// may be called from concurrent workers.
	Logf func(format string, args ...interface{})
	// Cluster, when non-nil, joins this server to a multi-node serving tier:
	// a solve whose content address is owned by a remote peer is forwarded
	// there (cache affinity — the owner's persistent tier accumulates exactly
	// its keys), with bounded retries, degraded local fallback when the owner
	// is unreachable, and a cross-replica audit on a deterministic sample of
	// proxied results. Nil means single node.
	Cluster *cluster.Cluster
}

// retryAfterHint is the Retry-After value sent with every 503, telling
// well-behaved clients (the peer client included) how long to back off
// before retrying.
const retryAfterHint = time.Second

// errUnavailable is wrapped by every admission and shutdown rejection: the
// job never ran, so a retry after the hint may succeed.
var errUnavailable = errors.New("unavailable")

// rejection wraps errUnavailable under its own text.
type rejection string

func (r rejection) Error() string { return string(r) }
func (r rejection) Unwrap() error { return errUnavailable }

const (
	errQueueFull    rejection = "admission queue full, retry later"
	errShuttingDown rejection = "server shutting down"
)

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) queueDepth() int {
	if c.QueueDepth > 0 {
		return c.QueueDepth
	}
	return 64
}

func (c Config) maxSolveTime() time.Duration {
	if c.MaxSolveTime > 0 {
		return c.MaxSolveTime
	}
	return 2 * time.Minute
}

func (c Config) jobRetention() int {
	if c.JobRetention > 0 {
		return c.JobRetention
	}
	return 256
}

func (c Config) maxBodyBytes() int64 {
	if c.MaxBodyBytes > 0 {
		return c.MaxBodyBytes
	}
	return 1 << 20
}

func (c Config) logf(format string, args ...interface{}) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// solver abstracts the engine call so tests can substitute a controllable
// fake; the production solver is one-job engine.Run.
type solver func(ctx context.Context, job engine.Job, logf func(string, ...interface{})) engine.Result

func engineSolver(ctx context.Context, job engine.Job, logf func(string, ...interface{})) engine.Result {
	return engine.Run(ctx, []engine.Job{job}, engine.Options{Parallel: 1, Logf: logf})[0]
}

// Server is the HTTP front-end. Create with New, expose via Handler, stop
// with Close.
type Server struct {
	cfg   Config
	solve solver
	queue chan *job
	jobs  *jobStore
	mux   *http.ServeMux

	base context.Context
	stop context.CancelFunc
	wg   sync.WaitGroup

	// closeMu fences admission against Close: enqueues hold the read lock,
	// Close flips closed under the write lock before draining, so no job can
	// slip into the queue after the drain and sit "queued" forever.
	closeMu sync.RWMutex
	closed  bool

	// inflight indexes admitted-but-unfinished jobs by content key so
	// concurrent identical requests share one solve (singleflight) instead
	// of all missing the cache and queueing duplicates.
	inflightMu sync.Mutex
	inflight   map[string]*job

	start       time.Time
	seq         atomic.Int64
	solved      atomic.Int64
	failed      atomic.Int64
	rejected    atomic.Int64
	coalesced   atomic.Int64
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	// panics counts solves that died by panic and were isolated to their job
	// (engine.PanicError or the runJob-level recover). A nonzero panics with
	// an alive server is the panic-isolation layer working as designed.
	panics atomic.Int64

	// ready flips on once the worker pool is running; draining flips on at
	// SIGTERM (or Close) and never off. /readyz reports them so load
	// balancers route around a node that is starting up or handing off —
	// distinct from /healthz, which answers "is the process alive" and keeps
	// saying ok throughout a drain so orchestrators don't kill a node that is
	// cleanly finishing its in-flight work.
	ready    atomic.Bool
	draining atomic.Bool

	// lp totals the simplex effort of every solve this server ran (cache
	// hits excluded: they spent no pivots here); exposed on /healthz.
	lpMu sync.Mutex
	lp   pilp.LPStats
}

// New creates a Server and starts its worker pool.
func New(cfg Config) *Server {
	return newWithSolver(cfg, engineSolver)
}

func newWithSolver(cfg Config, solve solver) *Server {
	base, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		solve:    solve,
		queue:    make(chan *job, cfg.queueDepth()),
		jobs:     newJobStore(cfg.jobRetention()),
		mux:      http.NewServeMux(),
		inflight: map[string]*job{},
		base:     base,
		stop:     stop,
		start:    time.Now(),
	}
	s.mux.HandleFunc("/v1/solve", s.handleSolve)
	s.mux.HandleFunc("/v1/jobs/", s.handleJob)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	for i := 0; i < cfg.workers(); i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.ready.Store(true)
	return s
}

// Handler returns the HTTP handler serving all endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// StartDraining flips /readyz to "draining" so load balancers stop routing
// new work here while in-flight jobs finish. rficserve calls it on SIGTERM
// before shutting the listener down; Close implies it.
func (s *Server) StartDraining() { s.draining.Store(true) }

// Close stops the worker pool, aborts running solves and fails every job
// still queued. It is safe to call more than once.
func (s *Server) Close() {
	s.StartDraining()
	s.closeMu.Lock()
	s.closed = true
	s.closeMu.Unlock()
	s.stop()
	s.wg.Wait()
	for {
		select {
		case j := <-s.queue:
			s.finishJob(j, failedResponse(j, context.Canceled))
		default:
			return
		}
	}
}

// fenced runs enqueue under closeMu's read lock unless Close has flipped
// closed: after Close no job can enter the queue (and sit "queued" forever)
// and no forward can start (so wg.Wait cannot race a late wg.Add).
func (s *Server) fenced(enqueue func() error) error {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return errShuttingDown
	}
	return enqueue()
}

// admit enqueues a job unless the queue is full or the server is closing.
func (s *Server) admit(j *job) error {
	return s.fenced(func() error {
		// Injected admission failure: same retryable 503 surface as a full
		// queue, so chaos schedules exercise the client retry path without
		// real load.
		if faultinject.Fired(faultinject.PointServerAdmit) {
			s.rejected.Add(1)
			return errQueueFull
		}
		select {
		case s.queue <- j:
			s.jobs.add(j)
			return nil
		default:
			s.rejected.Add(1)
			return errQueueFull
		}
	})
}

// worker pulls admitted jobs off the queue until the server closes.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case <-s.base.Done():
			return
		case j := <-s.queue:
			s.runJob(j)
		}
	}
}

// runJob executes one admitted job on this worker and records its outcome.
// It is the server's panic firewall: the engine already converts solver
// panics into engine.PanicError job errors, and a second recover here covers
// everything after the solve (formatting, caching, stats) — either way the
// panic is charged to the panics counter and the job fails cleanly while the
// worker, the queue and every other job keep going.
func (s *Server) runJob(j *job) {
	defer j.cancel()
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.cfg.logf("server: job %s panicked: %v", j.id, r)
			s.finishJob(j, failedResponse(j, fmt.Errorf("job %s panicked: %v", j.id, r)))
		}
	}()
	if !j.setRunning() {
		return
	}
	res := s.solve(j.ctx, engine.Job{ID: j.id, Circuit: j.circuit, Options: j.opts}, s.cfg.Logf)
	if res.Err == nil && (res.Result == nil || res.Result.Layout == nil) {
		res.Err = fmt.Errorf("solver returned no layout")
	}
	if res.Err != nil {
		var pe *engine.PanicError
		if errors.As(res.Err, &pe) {
			s.panics.Add(1)
			s.cfg.logf("server: job %s isolated a solver panic: %v\n%s", j.id, pe.Value, pe.Stack)
		}
		s.finishJob(j, failedResponse(j, res.Err))
		return
	}
	text := layout.Format(res.Result.Layout)
	// Partial results are anytime degradation, not the deterministic full
	// solve — caching one would serve degraded layouts to future full-quality
	// requests under the same key. Remote-owned keys (noCache) also stay out:
	// the owner's tier is where they belong.
	partial := res.Result.Partial
	if s.cfg.Cache != nil && !partial && !j.noCache {
		s.cfg.Cache.Put(j.key, cache.Entry{
			Circuit: j.circuit.Name,
			Layout:  []byte(text),
			Runtime: res.Runtime,
			Effort:  res.Effort,
		})
	}
	s.lpMu.Lock()
	s.lp.Add(res.LP)
	s.lpMu.Unlock()
	stats := buildStats(j.circuit, res.Result.Layout, res.Runtime, res.Effort)
	if partial {
		stats.PartialPhase = res.Result.PartialPhase
		stats.MaxGap = res.Result.MaxGap
		stats.InterruptedSolves = res.Result.InterruptedSolves
	}
	resp := &solveResponse{
		ID:       j.id,
		Circuit:  j.circuit.Name,
		Status:   string(statusDone),
		Partial:  partial,
		Degraded: j.degraded,
		Layout:   text,
		Stats:    stats,
	}
	s.finishJob(j, resp)
}

func (s *Server) finishJob(j *job, resp *solveResponse) {
	if resp.Status == string(statusDone) {
		s.solved.Add(1)
	} else {
		s.failed.Add(1)
	}
	s.completeJob(j, resp)
}

// completeJob is the one sequence that finishes a job — leave the
// singleflight index, wake waiters, surface in the job store. The index comes
// first: a woken client may retry at once, and a retry that still found the
// job would join it and get its answer back — for a failed job, the same
// failure again, however often it retries. finishJob wraps it with the
// solved/failed counters; reject calls it directly because rejections are
// counted by the rejected counter alone.
func (s *Server) completeJob(j *job, resp *solveResponse) {
	s.dropInflight(j)
	j.finish(resp)
	s.jobs.markFinished(j.id)
}

// reject finishes a job that admission or the close fence turned away, and
// returns its failed response. Singleflight followers may have joined the
// job meanwhile: finishing it wakes sync followers with the rejection
// instead of leaving them on done, and registering it lets async followers'
// polls find the rejection rather than a permanent 404.
func (s *Server) reject(j *job, err error) *solveResponse {
	s.jobs.add(j)
	resp := failedResponse(j, err)
	s.completeJob(j, resp)
	j.cancel()
	return resp
}

// coalesceGrace is how far a joiner's deadline may outlive the leader's and
// still share the leader's solve. Beyond it the request solves on its own:
// inheriting a much earlier deadline would fail it while its own budget
// still had time. Thundering herds arrive well inside this window, so the
// coalescing they need survives the rule.
const coalesceGrace = 5 * time.Second

// joinInflight registers j as the in-flight solve for its key, or returns
// the job already solving it. The caller's interest (async hold or sync
// waiter) is recorded under the lock, so a shared job cannot be cancelled
// from under a joiner by the other waiters leaving.
func (s *Server) joinInflight(j *job, async bool) *job {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	target := s.inflight[j.key]
	switch {
	case target == nil,
		// A leader whose context is already cancelled (its last client went
		// away moments ago, finishJob has not removed it yet) would only
		// hand the joiner a spurious "context canceled" failure — take over
		// as the new leader instead. dropInflight's identity check keeps
		// the old job's eventual cleanup from removing the replacement.
		target.ctx.Err() != nil && !target.isDone():
		s.inflight[j.key] = j
		target = j
	case outlivesLeader(j, target):
		// This request's deadline extends well past the leader's: sharing
		// would hand it the leader's earlier deadline failure. Solve
		// independently (unregistered — dropInflight's identity check makes
		// that harmless; the next cold request still finds the leader).
		target = j
	}
	if async {
		target.asyncHeld.Store(true)
	} else {
		target.attachWaiter()
	}
	if target == j {
		return nil
	}
	return target
}

// outlivesLeader reports whether j's deadline exceeds the leader's by more
// than the coalescing grace. Both contexts come from context.WithTimeout, so
// the deadlines exist; missing ones count as unbounded.
func outlivesLeader(j, leader *job) bool {
	ld, ok := leader.ctx.Deadline()
	if !ok {
		return false
	}
	jd, ok := j.ctx.Deadline()
	return !ok || jd.After(ld.Add(coalesceGrace))
}

func (s *Server) dropInflight(j *job) {
	s.inflightMu.Lock()
	if s.inflight[j.key] == j {
		delete(s.inflight, j.key)
	}
	s.inflightMu.Unlock()
}

// releaseWaiter drops one synchronous waiter from a job. The last waiter
// leaving aborts the solve so the worker frees up — unless an async request
// still holds the job. Both the decision and the cancellation happen under
// the inflight lock, so a concurrent joinInflight either attaches before the
// cancellation (and keeps the job alive) or observes the cancelled job and
// starts a fresh leader — it can never attach to a job this method is about
// to kill. The job is also removed from the inflight index here for the same
// reason.
func (s *Server) releaseWaiter(j *job) {
	s.inflightMu.Lock()
	defer s.inflightMu.Unlock()
	if j.waiters.Add(-1) == 0 && !j.asyncHeld.Load() && !j.isDone() {
		j.cancel()
		if s.inflight[j.key] == j {
			delete(s.inflight, j.key)
		}
	}
}

// solveResponse is the JSON document returned by /v1/solve and /v1/jobs.
type solveResponse struct {
	ID       string `json:"id"`
	Circuit  string `json:"circuit,omitempty"`
	Status   string `json:"status"`
	CacheHit bool   `json:"cache_hit,omitempty"`
	// Partial marks an anytime result: the deadline fired mid-flow and (with
	// accept_partial=1) Layout holds the best layout reached, not the fully
	// refined one. Stats carries the phase reached and bound-gap figures.
	Partial bool        `json:"partial,omitempty"`
	Layout  string      `json:"layout,omitempty"`
	Stats   *solveStats `json:"stats,omitempty"`
	Error   string      `json:"error,omitempty"`
	// Proxied marks a result answered by the owner node (named by Owner) via
	// the cluster forwarding path; Degraded marks a remote-owned solve that
	// fell back to this node after the forward failed. Determinism makes the
	// three provenances — local, proxied, degraded — byte-identical in Layout;
	// the flags exist so operators and the chaos battery can tell them apart.
	Proxied  bool   `json:"proxied,omitempty"`
	Owner    string `json:"owner,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`

	// code is the HTTP status this response is served with; zero means 200.
	// failedResponse sets it where the failure happens, so singleflight
	// followers and /v1/jobs polls answer with the status of the outcome.
	code int
}

// solveStats reports how the layout was obtained and how good it is.
type solveStats struct {
	RuntimeNS        int64   `json:"runtime_ns"`
	Runtime          string  `json:"runtime"`
	Nodes            int     `json:"nodes"`
	WirelengthUM     float64 `json:"wirelength_um"`
	TotalBends       int     `json:"total_bends"`
	MaxBends         int     `json:"max_bends"`
	Violations       int     `json:"violations"`
	MaxLengthErrorUM float64 `json:"max_length_error_um"`
	// LP reports the simplex-level effort of the solve; absent for cache
	// entries written before the counters existed.
	LP *lpJSON `json:"lp,omitempty"`
	// PartialPhase, MaxGap and InterruptedSolves qualify a partial result:
	// the last flow phase the layout completed, the worst relative
	// incumbent/bound gap across its MILP solves, and how many of those
	// solves the deadline interrupted. Present only when partial is set.
	PartialPhase      string  `json:"partial_phase,omitempty"`
	MaxGap            float64 `json:"max_gap,omitempty"`
	InterruptedSolves int     `json:"interrupted_solves,omitempty"`
}

// lpJSON is the response's "lp" object: the counters in their one wire form
// (milp.LPStats) plus the derived warm-hit rate.
type lpJSON struct {
	pilp.LPStats
	WarmHitRate float64 `json:"warm_hit_rate"`
}

// buildStats derives the quality metrics of a layout plus the solve-effort
// counters; "lp" is left out when no LP counter was recorded.
func buildStats(c *netlist.Circuit, l *layout.Layout, elapsed time.Duration, effort pilp.Effort) *solveStats {
	m := l.Metrics()
	var wirelength geom.Coord
	for _, rs := range l.RoutedStrips() {
		wirelength += rs.EquivalentLength(c.Tech.BendCompensation)
	}
	stats := &solveStats{
		RuntimeNS:        int64(elapsed),
		Runtime:          elapsed.String(),
		Nodes:            effort.Nodes,
		WirelengthUM:     geom.Microns(wirelength),
		TotalBends:       m.TotalBends,
		MaxBends:         m.MaxBends,
		Violations:       len(pilp.Violations(l)),
		MaxLengthErrorUM: geom.Microns(m.MaxLengthError),
	}
	if effort.LP != (pilp.LPStats{}) {
		stats.LP = &lpJSON{effort.LP, effort.LP.WarmHitRate()}
	}
	return stats
}

// failedResponse records a job's failure under its HTTP status: 503 for an
// admission or shutdown rejection, 504 for a deadline or cancellation, 500
// for anything else.
func failedResponse(j *job, err error) *solveResponse {
	code := http.StatusInternalServerError
	switch {
	case errors.Is(err, errUnavailable):
		code = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		code = http.StatusGatewayTimeout
	}
	return &solveResponse{
		ID:      j.id,
		Circuit: j.circuit.Name,
		Status:  string(statusFailed),
		Error:   err.Error(),
		code:    code,
	}
}

// handleSolve admits a netlist: cache hits answer immediately, misses are
// queued onto the worker pool. Synchronous requests (the default) block
// until the solve finishes or the request context dies; async=1 returns 202
// with a job ID for polling via /v1/jobs/{id}.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST a circuit file to /v1/solve")
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, s.cfg.maxBodyBytes()+1))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading request body: "+err.Error())
		return
	}
	if int64(len(body)) > s.cfg.maxBodyBytes() {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("netlist exceeds the %d byte limit", s.cfg.maxBodyBytes()))
		return
	}
	circuit, err := netlist.ParseString(string(body))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	// Every query value is validated before the cache is consulted, so a
	// malformed request answers 400 whether or not its circuit is cached.
	timeout := s.cfg.maxSolveTime()
	if arg := r.URL.Query().Get("timeout"); arg != "" {
		d, err := time.ParseDuration(arg)
		if err != nil || d <= 0 {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("invalid timeout %q", arg))
			return
		}
		if d < timeout {
			timeout = d
		}
	}
	async, err := queryFlag(r.URL.Query(), "async")
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	opts := s.cfg.SolveOptions
	// accept_partial opts this request into anytime degradation: a deadline
	// mid-flow returns the best layout reached (marked partial) instead of
	// 504. The flag is excluded from the option fingerprint, so it shares the
	// cache key — and the singleflight key — with full-quality requests; a
	// partial result is never written to the cache.
	if opts.AcceptPartial, err = queryFlag(r.URL.Query(), "accept_partial"); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := cache.Key(circuit, opts)

	// Cluster routing. A request carrying the ownership header was forwarded
	// here by a peer that resolved this node as the owner: solve locally and
	// never re-forward, whatever our own ring says — that asymmetry is what
	// makes forwarding loop-free when peer lists skew during membership
	// change. Otherwise, resolve the owner; a remote owner means this request
	// forwards, so the local cache is neither consulted nor (later) written —
	// cache affinity keeps each key's entries on exactly one node.
	fromPeer := r.Header.Get(cluster.HeaderForwardedFrom)
	owner, remote := s.cfg.Cluster.Owner(key)
	if fromPeer != "" {
		remote = false
	}

	if s.cfg.Cache != nil && !remote {
		if entry, ok := s.cfg.Cache.Get(key); ok {
			// An entry whose layout text no longer parses (format drift,
			// torn disk entry) degrades to a miss and is re-solved — the
			// cache is an optimization, never a correctness dependency.
			if l, err := layout.ParseLayoutString(string(entry.Layout), circuit); err == nil {
				s.cacheHits.Add(1)
				writeResult(w, cachedResponse(circuit, entry, l))
				return
			}
		}
		s.cacheMisses.Add(1)
	}

	// The pool owns the parallelism dimension: with several workers each
	// flow is pinned to one solver goroutine; a single-worker pool hands the
	// whole machine to the one flow in flight.
	if s.cfg.workers() > 1 {
		opts.Workers = 1
	}

	ctx, cancel := context.WithTimeout(s.base, timeout)
	j := &job{
		id:      fmt.Sprintf("j%06d-%s", s.seq.Add(1), key[:12]),
		circuit: circuit,
		key:     key,
		opts:    opts,
		body:    body,
		noCache: remote,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		status:  statusQueued,
	}

	// Singleflight: an identical solve already in flight (same content key,
	// i.e. same canonical circuit and options) is shared instead of queued a
	// second time. The solve runs under the leader's deadline, but a sync
	// follower still waits no longer than its own requested timeout (j.ctx
	// carries it) — coalescing must not erase the per-request 504 contract.
	if leader := s.joinInflight(j, async); leader != nil {
		s.coalesced.Add(1)
		if async {
			cancel()
			writeJSON(w, http.StatusAccepted, leader.snapshot())
			return
		}
		s.awaitJob(w, r, leader, j.ctx)
		cancel()
		return
	}

	// A remote-owned job starts a forward operation instead of entering the
	// local queue; everything downstream (singleflight joiners, awaitJob, the
	// job store) treats it like any other leader. Degraded fallbacks re-enter
	// through admit, so local solve capacity still bounds them.
	var admitErr error
	if remote {
		admitErr = s.startForward(j, owner)
	} else {
		admitErr = s.admit(j)
	}
	if admitErr != nil {
		// The creator's own waiter slot (attached by joinInflight) is
		// released here — without this, a rejected job's refcount never
		// reaches zero, which matters once followers can join remote-owned
		// leaders whose cancellation is driven by that refcount.
		resp := s.reject(j, admitErr)
		if !async {
			s.releaseWaiter(j)
		}
		writeResult(w, resp)
		return
	}

	if async {
		writeJSON(w, http.StatusAccepted, j.snapshot())
		return
	}
	s.awaitJob(w, r, j, nil)
}

// startForward launches the peer-forward goroutine for a remote-owned job,
// behind the same close fence as admit.
func (s *Server) startForward(j *job, owner cluster.Peer) error {
	return s.fenced(func() error {
		s.jobs.add(j)
		s.wg.Add(1)
		go s.runForward(j, owner)
		return nil
	})
}

// runForward drives one remote-owned job: forward to the owner (Cluster.Forward
// retries with backoff under the retry budget), audit a deterministic
// sample of proxied results against a local re-solve, and degrade to a local
// solve when the owner cannot answer. The job stays "queued" while the
// forward is in flight so a degraded fallback can re-enter the worker pool
// through the normal admission path.
func (s *Server) runForward(j *job, owner cluster.Peer) {
	defer s.wg.Done()
	cl := s.cfg.Cluster

	query := url.Values{}
	if deadline, ok := j.ctx.Deadline(); ok {
		if remaining := time.Until(deadline); remaining > 0 {
			query.Set("timeout", remaining.Round(time.Millisecond).String())
		}
	}
	if j.opts.AcceptPartial {
		query.Set("accept_partial", "1")
	}

	body, err := cl.Forward(j.ctx, owner, j.key, j.body, query)
	if err == nil {
		var resp solveResponse
		if err = json.Unmarshal(body, &resp); err == nil && resp.Layout != "" {
			resp.ID = j.id
			resp.Proxied = true
			resp.Owner = owner.Name
			if cl.ShouldAudit(j.key) && !resp.Partial {
				s.auditProxied(j, owner, &resp)
			}
			cl.CountForwarded()
			j.cancel()
			s.finishJob(j, &resp)
			return
		}
		err = fmt.Errorf("owner %s returned an unusable response (%v)", owner.Name, err)
	}
	if cerr := j.ctx.Err(); cerr != nil {
		// The client went away (or the deadline fired) while forwarding:
		// surface the cancellation, don't burn a local solve on it.
		j.cancel()
		s.finishJob(j, failedResponse(j, cerr))
		return
	}

	// Degraded mode: the owner is unreachable or over budget, so this node
	// solves locally. Correctness is untouched — determinism makes the bytes
	// identical to the owner's — the cost is cache affinity (the result stays
	// uncached here). Admission still gates the work so a dead peer cannot
	// bypass the queue bound.
	cl.CountDegraded()
	j.degraded = true
	s.cfg.logf("server: degraded: job %s owner %s unreachable, solving locally: %v", j.id, owner.Name, err)
	if aerr := s.admit(j); aerr != nil {
		s.reject(j, aerr)
	}
}

// auditProxied is the cross-replica audit: re-solve the forwarded job locally
// and compare layouts byte-for-byte. The determinism contract says they must
// match; a mismatch is a fleet-level alarm (counter + log) and the locally
// solved bytes win, since this node can vouch for them. The audit runs on the
// forward goroutine, off the worker pool — it is sampled (AuditEvery), so the
// extra load is bounded and never queues behind real work.
func (s *Server) auditProxied(j *job, owner cluster.Peer, resp *solveResponse) {
	res := s.solve(j.ctx, engine.Job{ID: j.id + "-audit", Circuit: j.circuit, Options: j.opts}, s.cfg.Logf)
	if res.Err != nil || res.Result == nil || res.Result.Layout == nil || res.Result.Partial {
		// Inconclusive (cancelled mid-solve, or the local solve failed):
		// count the audit, alarm nothing — a broken local node must not
		// accuse a healthy owner.
		s.cfg.Cluster.CountAudit(true)
		s.cfg.logf("server: audit of job %s inconclusive: %v", j.id, res.Err)
		return
	}
	local := layout.Format(res.Result.Layout)
	match := local == resp.Layout
	s.cfg.Cluster.CountAudit(match)
	if !match {
		s.cfg.logf("server: AUDIT MISMATCH job %s: owner %s layout differs from local re-solve (%d vs %d bytes) — determinism contract broken",
			j.id, owner.Name, len(resp.Layout), len(local))
		resp.Layout = local
		resp.Proxied = false
		resp.Owner = ""
	}
}

// awaitJob blocks a synchronous request on a job it holds a waiter slot on
// (recorded by joinInflight). A client that goes away releases its slot; the
// last synchronous waiter leaving aborts the solve so the worker frees up,
// unless an async request also holds the job. limit, when non-nil, bounds
// the wait independently of the job — singleflight followers pass their own
// request-timeout context so a shared solve still answers 504 on their
// schedule (the leader needs no limit: its job context is what times the
// solve out).
func (s *Server) awaitJob(w http.ResponseWriter, r *http.Request, j *job, limit context.Context) {
	stop := context.AfterFunc(r.Context(), func() { s.releaseWaiter(j) })
	defer func() {
		if stop() {
			s.releaseWaiter(j)
		}
	}()
	var limitDone <-chan struct{}
	if limit != nil {
		limitDone = limit.Done()
	}
	select {
	case <-j.done:
		writeResult(w, j.snapshot())
	case <-limitDone:
		// The shared solve may have finished in the same instant; prefer
		// its result over a spurious timeout.
		select {
		case <-j.done:
			writeResult(w, j.snapshot())
		default:
			writeError(w, http.StatusGatewayTimeout, "request timed out before the shared solve finished: "+limit.Err().Error())
		}
	case <-r.Context().Done():
		writeError(w, http.StatusGatewayTimeout, "request cancelled before the solve finished: "+r.Context().Err().Error())
	case <-s.base.Done():
		writeError(w, http.StatusServiceUnavailable, errShuttingDown.Error())
	}
}

// writeResult serves a job's response under the status it recorded.
func writeResult(w http.ResponseWriter, resp *solveResponse) {
	code := resp.code
	if code == 0 {
		code = http.StatusOK
	}
	writeJSON(w, code, resp)
}

// cachedResponse rebuilds a full solve response from a cache entry and its
// already-parsed layout. The layout text is served verbatim — determinism
// makes it byte-identical to what re-solving would produce — while the
// quality metrics are recomputed from the parsed layout.
func cachedResponse(c *netlist.Circuit, entry cache.Entry, l *layout.Layout) *solveResponse {
	return &solveResponse{
		ID:       fmt.Sprintf("cached-%s", c.Name),
		Circuit:  c.Name,
		Status:   string(statusDone),
		CacheHit: true,
		Layout:   string(entry.Layout),
		Stats:    buildStats(c, l, entry.Runtime, entry.Effort),
	}
}

// handleJob serves GET /v1/jobs/{id}.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /v1/jobs/{id}")
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	if id == "" || strings.Contains(id, "/") {
		writeError(w, http.StatusBadRequest, "job ID required: /v1/jobs/{id}")
		return
	}
	j, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	writeResult(w, j.snapshot())
}

// healthResponse is the /healthz document. CacheHits/CacheMisses count this
// server's lookups; Cache reports the tier's own counters (including
// evictions and footprint) when the configured cache exposes them.
type healthResponse struct {
	Status        string         `json:"status"`
	Uptime        string         `json:"uptime"`
	Workers       int            `json:"workers"`
	QueueDepth    int            `json:"queue_depth"`
	QueueCapacity int            `json:"queue_capacity"`
	Jobs          map[string]int `json:"jobs"`
	Solved        int64          `json:"solved"`
	Failed        int64          `json:"failed"`
	Rejected      int64          `json:"rejected"`
	Coalesced     int64          `json:"coalesced"`
	CacheHits     int64          `json:"cache_hits"`
	CacheMisses   int64          `json:"cache_misses"`
	// LPPivots, LPWarmHits and LPColdSolves total the simplex effort of
	// every solve this server ran (cache hits excluded).
	LPPivots     int          `json:"lp_pivots"`
	LPWarmHits   int          `json:"lp_warm_hits"`
	LPColdSolves int          `json:"lp_cold_solves"`
	Cache        *cache.Stats `json:"cache,omitempty"`
	// Panics counts solver panics isolated to their job: each one failed a
	// single request while the process kept serving. The cache tier's own
	// quarantine counter rides in Cache.Corrupt.
	Panics int64 `json:"panics"`
	// Faults snapshots the active fault-injection registry's per-point
	// hit/fired counters (absent when injection is disabled), so a chaos
	// harness can reconcile every injected fault against the counters above.
	Faults map[string]faultinject.PointCount `json:"faults,omitempty"`
	// Cluster reports the node's serving-tier counters (forwarded, retried,
	// degraded, audit results); absent on a single-node server.
	Cluster *cluster.StatsSnapshot `json:"cluster,omitempty"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /healthz")
		return
	}
	s.lpMu.Lock()
	lp := s.lp
	s.lpMu.Unlock()
	h := healthResponse{
		Status:        "ok",
		Uptime:        time.Since(s.start).Round(time.Millisecond).String(),
		Workers:       s.cfg.workers(),
		QueueDepth:    len(s.queue),
		QueueCapacity: cap(s.queue),
		Jobs:          s.jobs.counts(),
		Solved:        s.solved.Load(),
		Failed:        s.failed.Load(),
		Rejected:      s.rejected.Load(),
		Coalesced:     s.coalesced.Load(),
		CacheHits:     s.cacheHits.Load(),
		CacheMisses:   s.cacheMisses.Load(),
		LPPivots:      lp.Pivots,
		LPWarmHits:    lp.WarmHits,
		LPColdSolves:  lp.ColdSolves,
		Panics:        s.panics.Load(),
		Faults:        faultinject.Active().Counts(),
		Cluster:       s.cfg.Cluster.Snapshot(),
	}
	if sr, ok := s.cfg.Cache.(cache.StatsReader); ok {
		st := sr.Stats()
		h.Cache = &st
	}
	writeJSON(w, http.StatusOK, h)
}

// handleReadyz is the routing signal, distinct from /healthz liveness: a
// draining or not-yet-started node is alive (keep the process) but must not
// receive new work (stop routing to it).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /readyz")
		return
	}
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "not_ready"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// writeJSON sends v under code. A 503 gets a Retry-After hint so
// well-behaved clients (the peer client included) back off instead of
// hammering a node that just shed load.
func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", cluster.RetryAfter(retryAfterHint))
	}
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// errorResponse is the JSON error document shared by all endpoints.
type errorResponse struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorResponse{Error: msg})
}

// queryFlag parses the boolean query parameter name: empty, "0" or "false"
// is false, "1" or "true" is true, and anything else is an error.
func queryFlag(q url.Values, name string) (bool, error) {
	switch arg := q.Get(name); arg {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, fmt.Errorf("invalid %s flag %q", name, arg)
	}
}
