package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"rficlayout/internal/cache"
	"rficlayout/internal/cluster"
)

// headerRequest carries the benchmark's request id to the entry node, whose
// handler span takes it as its parent link. Forwarded requests are linked by
// the content key instead, which the cluster sends in
// cluster.HeaderContentKey.
const headerRequest = "X-Bench-Request"

// span is one timed call into a layer. Times are nanoseconds since the
// tracer began.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"` // request index (serving) or item label (batch)
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	node   string
	key    string // content key, linking spans across nodes
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans around the benchmark's calls into each layer. It
// keeps them in memory and writes them out when the run ends; spans only
// record while it is on, which is during the timed region and the probes.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []span
	// peakEta is the longest eta file any stored solve reported
	// (cache.Entry.LP.PeakEta), the one LP counter a response omits.
	peakEta int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a root span, starts recording and returns the root's id. The
// first root, id 0, is the workload's timed region.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on = true
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: -1, Name: name, Start: now, End: now})
	return len(t.spans) - 1
}

// end closes the most recent root span and stops recording.
func (t *tracer) end() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.spans) - 1; i >= 0; i-- {
		if t.spans[i].Parent == -1 {
			t.spans[i].End = time.Since(t.t0).Nanoseconds()
			break
		}
	}
	t.on = false
}

// add records a span under parent and returns its id, or -1 when the tracer
// is off.
func (t *tracer) add(parent int, name, req string, start, end time.Time) int {
	return t.addSpan(span{Parent: parent, Name: name, Req: req}, start, end)
}

func (t *tracer) addSpan(s span, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return -1
	}
	s.ID = len(t.spans)
	s.Start, s.End = start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, s)
	return s.ID
}

// handler is middleware timing every solve a node serves.
func (t *tracer) handler(node string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		if r.URL.Path == "/v1/solve" {
			t.addSpan(span{Parent: 0, Name: "server.handle@" + node, Req: r.Header.Get(headerRequest),
				node: node, key: r.Header.Get(cluster.HeaderContentKey)}, start, time.Now())
		}
	})
}

// tracedCache times every Get and Put of a node's cache tier.
type tracedCache struct {
	inner cache.Cache
	node  string
	t     *tracer
}

func (c *tracedCache) Get(key string) (cache.Entry, bool) {
	start := time.Now()
	e, ok := c.inner.Get(key)
	c.t.addSpan(span{Parent: 0, Name: "cache.get", node: c.node, key: key}, start, time.Now())
	return e, ok
}

func (c *tracedCache) Put(key string, e cache.Entry) {
	start := time.Now()
	c.inner.Put(key, e)
	if c.t.addSpan(span{Parent: 0, Name: "cache.put", node: c.node, key: key}, start, time.Now()) >= 0 {
		c.t.mu.Lock()
		c.t.peakEta = max(c.t.peakEta, e.LP.PeakEta)
		c.t.mu.Unlock()
	}
}

// Stats passes the tier's counters through, so /healthz still reports them.
func (c *tracedCache) Stats() cache.Stats {
	if sr, ok := c.inner.(cache.StatsReader); ok {
		return sr.Stats()
	}
	return cache.Stats{}
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// replace swaps in a linked copy of the spans (see serving.link).
func (t *tracer) replace(spans []span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = spans
}

// selfMS is each span name's total self time in milliseconds: a span's
// duration minus the part of it its children cover.
func selfMS(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := map[string]float64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += float64(s.dur()-covered) / 1e6
	}
	return self
}

// write saves the spans and the per-name self times as JSON.
func (t *tracer) write(path, workload string) error {
	spans := t.snapshot()
	doc := struct {
		Workload string             `json:"workload"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Spans    []span             `json:"spans"`
	}{workload, selfMS(spans), spans}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
