// Package faultinject is a seeded, deterministic fault-injection registry.
// Production code marks named injection points (a cache read, a pool job, an
// admission decision); a chaos harness arms a Registry with a per-point
// probability and budget, and every point then fails on a schedule that is a
// pure function of (seed, point name, occurrence index). The same seed
// always yields the identical fault schedule — injected faults reproduce
// byte-for-byte, exactly like the solver's determinism contract — which is
// what makes failure-domain tests replayable instead of flaky.
//
// Design constraints, in priority order:
//
//   - Zero cost when disabled: an injection point in a hot path (the conc
//     pool wraps every LP evaluation) is a single atomic pointer load.
//   - Deterministic schedule under concurrency: the decision for the n-th
//     occurrence of a point depends only on (seed, point, n), never on
//     goroutine interleaving. Concurrent callers may race for *which* of
//     them observes occurrence n, but the set of fired occurrences — the
//     schedule — is identical on every run.
//   - Recomputable: the registry stores only per-point counters; the full
//     schedule is re-derived from the seed on demand (WriteSchedule), so
//     archiving it costs nothing during the run.
//
// The spec grammar is point=prob[/budget], comma- or semicolon-separated:
//
//	conc.panic=0.02/2,cache.dir.read=1/3
//
// arms conc.panic at 2% per occurrence capped at 2 firings, and fails the
// first 3 cache directory reads outright. rficserve arms the global registry
// from $RFIC_FAULTS / $RFIC_FAULT_SEED; the chaos tests in internal/server
// arm it with New and Enable.
package faultinject

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Well-known injection points. The registry accepts any name — these
// constants exist so the producing and consuming sides of each point cannot
// drift apart.
const (
	// PointConcPanic panics a worker-pool job before it runs (internal/conc),
	// exercising the per-job panic isolation of engine.Run and server.runJob.
	PointConcPanic = "conc.panic"
	// PointConcDelay delays a worker-pool job by a millisecond, exercising
	// completion-order robustness without changing any result.
	PointConcDelay = "conc.delay"
	// PointEnginePanic panics a job inside engine.Run before the flow starts.
	PointEnginePanic = "engine.panic"
	// PointServerAdmit fails server admission as if the queue were full
	// (503, retryable).
	PointServerAdmit = "server.admit"
	// PointCacheRead fails a persistent-cache read with a transient error
	// (retried a bounded number of times, then a miss).
	PointCacheRead = "cache.dir.read"
	// PointCacheWrite fails a persistent-cache write (the entry is dropped).
	PointCacheWrite = "cache.dir.write"
	// PointCacheRename fails the temp-file rename that commits a
	// persistent-cache write (the entry is dropped).
	PointCacheRename = "cache.dir.rename"
	// PointCacheTorn truncates a persistent-cache write mid-entry: the file
	// commits but holds torn JSON, exercising the checksum/quarantine path.
	PointCacheTorn = "cache.dir.torn"
	// PointClusterDial fails a peer-forward attempt before the request is
	// issued, as if the owner node refused the connection.
	PointClusterDial = "cluster.dial"
	// PointClusterForward fails a peer-forward attempt after the request was
	// issued, as if the connection died mid-exchange.
	PointClusterForward = "cluster.forward"
	// PointClusterBody fails reading the owner's response body, as if the
	// connection was cut after the status line arrived.
	PointClusterBody = "cluster.body"
)

// ErrInjected is the target every injected I/O error matches via errors.Is.
// Consumers treat such errors as transient: bounded deterministic retry is
// safe because the schedule is deterministic.
var ErrInjected = errors.New("faultinject: injected error")

// pointError is the concrete injected error; it names its point so logs can
// attribute failures to the schedule.
type pointError struct{ point string }

func (e *pointError) Error() string        { return "faultinject: injected error at " + e.point }
func (e *pointError) Is(target error) bool { return target == ErrInjected }

// Panic is the value thrown by PanicAt. The message deliberately excludes
// the occurrence index so recovered-panic errors stay byte-identical across
// replays of the same schedule.
type Panic struct{ Point string }

func (p Panic) String() string { return "faultinject: injected panic at " + p.Point }

// PointSpec arms one injection point.
type PointSpec struct {
	// Prob is the firing probability per occurrence, in [0, 1].
	Prob float64
	// Budget caps how many occurrences may fire; zero or negative means
	// unlimited.
	Budget int
}

// Plan maps point names to their specs.
type Plan map[string]PointSpec

// ParsePlan parses the point=prob[/budget] spec grammar. An empty spec is a
// valid empty plan.
func ParsePlan(spec string) (Plan, error) {
	plan := Plan{}
	for _, field := range strings.FieldsFunc(spec, func(r rune) bool { return r == ',' || r == ';' }) {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		name, rest, ok := strings.Cut(field, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("faultinject: %q is not point=prob[/budget]", field)
		}
		probStr, budgetStr, hasBudget := strings.Cut(rest, "/")
		prob, err := strconv.ParseFloat(probStr, 64)
		if err != nil || prob < 0 || prob > 1 {
			return nil, fmt.Errorf("faultinject: %q: probability must be in [0,1]", field)
		}
		spec := PointSpec{Prob: prob}
		if hasBudget {
			b, err := strconv.Atoi(budgetStr)
			if err != nil || b <= 0 {
				return nil, fmt.Errorf("faultinject: %q: budget must be a positive integer", field)
			}
			spec.Budget = b
		}
		plan[name] = spec
	}
	return plan, nil
}

// String renders the plan back into the spec grammar, points sorted by name.
func (p Plan) String() string {
	names := make([]string, 0, len(p))
	for name := range p {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		s := p[name]
		if s.Budget > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g/%d", name, s.Prob, s.Budget))
		} else {
			parts = append(parts, fmt.Sprintf("%s=%g", name, s.Prob))
		}
	}
	return strings.Join(parts, ",")
}

// pointState tracks one armed point. The mutex serializes occurrence
// assignment, which is what makes the runtime decisions agree exactly with
// the pure recomputation in WriteSchedule.
type pointState struct {
	spec  PointSpec
	mu    sync.Mutex
	hits  int64
	fired int64
}

// Registry is an armed fault plan. A nil *Registry is valid and never fires.
type Registry struct {
	seed int64
	plan Plan
	pts  map[string]*pointState
}

// New arms a plan under a seed.
func New(plan Plan, seed int64) *Registry {
	r := &Registry{seed: seed, plan: plan, pts: make(map[string]*pointState, len(plan))}
	for name, spec := range plan {
		r.pts[name] = &pointState{spec: spec}
	}
	return r
}

// Seed returns the registry's seed.
func (r *Registry) Seed() int64 { return r.seed }

// Plan returns the armed plan.
func (r *Registry) Plan() Plan { return r.plan }

// Fire records one occurrence of the point and reports whether it fires.
// The decision for the n-th occurrence is decide(seed, point, n) gated by
// the point's remaining budget; unarmed points never fire (and are not
// counted — an unarmed point costs one map lookup).
func (r *Registry) Fire(point string) bool {
	if r == nil {
		return false
	}
	st, ok := r.pts[point]
	if !ok {
		return false
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	n := st.hits
	st.hits++
	if st.spec.Budget > 0 && st.fired >= int64(st.spec.Budget) {
		return false
	}
	if !decide(r.seed, point, n, st.spec.Prob) {
		return false
	}
	st.fired++
	return true
}

// PointCount reports one point's occurrence bookkeeping.
type PointCount struct {
	Hits  int64 `json:"hits"`
	Fired int64 `json:"fired"`
}

// Counts snapshots every armed point's hit/fired counters. Points that were
// never hit are included (zero counts) so consumers can see the full plan.
func (r *Registry) Counts() map[string]PointCount {
	if r == nil {
		return nil
	}
	out := make(map[string]PointCount, len(r.pts))
	for name, st := range r.pts {
		st.mu.Lock()
		out[name] = PointCount{Hits: st.hits, Fired: st.fired}
		st.mu.Unlock()
	}
	return out
}

// FiredTotal sums the fired counters across the named points (all points
// when none are named).
func (r *Registry) FiredTotal(points ...string) int64 {
	counts := r.Counts()
	var total int64
	if len(points) == 0 {
		for _, c := range counts {
			total += c.Fired
		}
		return total
	}
	for _, p := range points {
		total += counts[p].Fired
	}
	return total
}

// scheduleEvent is one fired occurrence in the schedule JSONL; the summary
// variant (hits/fired set, occurrence -1) closes out each point.
type scheduleEvent struct {
	Point      string `json:"point"`
	Occurrence int64  `json:"occurrence,omitempty"`
	Fired      *bool  `json:"fired,omitempty"`
	Hits       *int64 `json:"hits,omitempty"`
	Total      *int64 `json:"total_fired,omitempty"`
}

// WriteSchedule re-derives the fault schedule of this run and writes it as
// JSONL: one line per fired occurrence, then one summary line per point,
// points in name order. The output is a pure function of (seed, plan, hit
// counts), so two runs with the same seed and the same deterministic
// workload produce byte-identical schedules — that file is the replayable
// record CI archives.
func (r *Registry) WriteSchedule(w io.Writer) error {
	if r == nil {
		return nil
	}
	names := make([]string, 0, len(r.pts))
	for name := range r.pts {
		names = append(names, name)
	}
	sort.Strings(names)
	counts := r.Counts()
	for _, name := range names {
		c := counts[name]
		spec := r.plan[name]
		var fired int64
		for n := int64(0); n < c.Hits; n++ {
			if spec.Budget > 0 && fired >= int64(spec.Budget) {
				break
			}
			if !decide(r.seed, name, n, spec.Prob) {
				continue
			}
			fired++
			t := true
			if err := writeJSONLine(w, scheduleEvent{Point: name, Occurrence: n, Fired: &t}); err != nil {
				return err
			}
		}
		hits, total := c.Hits, c.Fired
		if err := writeJSONLine(w, scheduleEvent{Point: name, Hits: &hits, Total: &total}); err != nil {
			return err
		}
	}
	return nil
}

// writeJSONLine hand-renders one schedule line: field order must be stable
// and encoding/json already guarantees that for a struct, but a tiny local
// helper keeps the Write error handling in one place.
func writeJSONLine(w io.Writer, ev scheduleEvent) error {
	var b strings.Builder
	b.WriteString(`{"point":` + strconv.Quote(ev.Point))
	if ev.Fired != nil {
		fmt.Fprintf(&b, `,"occurrence":%d,"fired":true`, ev.Occurrence)
	}
	if ev.Hits != nil {
		fmt.Fprintf(&b, `,"hits":%d,"total_fired":%d`, *ev.Hits, *ev.Total)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// decide is the pure per-occurrence draw: a splitmix64 finalizer over the
// seed, the point-name hash and the occurrence index, mapped to [0,1) and
// compared against the probability. Integer-only math keeps it identical on
// every platform.
func decide(seed int64, point string, n int64, prob float64) bool {
	if prob <= 0 {
		return false
	}
	if prob >= 1 {
		return true
	}
	h := fnv.New64a()
	io.WriteString(h, point)
	x := uint64(seed) ^ h.Sum64() ^ (uint64(n)+1)*0x9e3779b97f4a7c15
	x = mix64(x)
	return float64(x>>11)/(1<<53) < prob
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// active is the process-global registry injection points consult. Injection
// points live deep inside layers (the conc pool, cache I/O) whose APIs should
// not grow a fault parameter; a single atomic pointer is the zero-cost
// disabled path those hot paths need.
var active atomic.Pointer[Registry]

// Enable installs the registry globally. Passing nil disables injection.
func Enable(r *Registry) {
	if r == nil {
		active.Store(nil)
		return
	}
	active.Store(r)
}

// Disable removes the global registry.
func Disable() { active.Store(nil) }

// Active returns the installed registry, nil when injection is disabled.
func Active() *Registry { return active.Load() }

// Fired records one occurrence of the point on the global registry and
// reports whether it fires. Disabled: one atomic load, no allocation.
func Fired(point string) bool {
	r := active.Load()
	if r == nil {
		return false
	}
	return r.Fire(point)
}

// ErrorAt returns an injected transient error when the point fires, nil
// otherwise.
func ErrorAt(point string) error {
	if Fired(point) {
		return &pointError{point: point}
	}
	return nil
}

// PanicAt panics with a deterministic value when the point fires.
func PanicAt(point string) {
	if Fired(point) {
		panic(Panic{Point: point})
	}
}

// SleepAt sleeps for d when the point fires — a scheduling perturbation that
// must never change results (the determinism contract's whole claim).
func SleepAt(point string, d time.Duration) {
	if Fired(point) {
		time.Sleep(d)
	}
}
