package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rficlayout/internal/cache"
	"rficlayout/internal/cluster"
	"rficlayout/internal/server"
)

const (
	// clients is the closed-loop client count: each sends its next request
	// when the previous one has answered. It matches the machine's two
	// cores, and so does serverWorkers, the solver pool of every node.
	clients       = 2
	serverWorkers = 2
	// probeSample is how many serving circuits, in label order, the layer
	// probes solve.
	probeSample = 8
	// maxProblems bounds how many failed requests a pass itemizes.
	maxProblems = 20
)

// serving runs in-process nodes on loopback listeners and drives closed-loop
// traffic into the first of them. With two nodes they form a cluster with
// rficserve's defaults (64 virtual nodes, audit sample 1 in 8).
type serving struct {
	nodeNames []string
	warm      []request // solved through the entry node during set-up
	seq       []request // the measured requests, in order
	hitsOnly  bool      // the latency metrics describe cache hits only
	scratch   string    // parent directory of the nodes' cache tiers

	nodes  []*node
	dir    string // the nodes' cache directories
	client *http.Client
	first  map[string]string // label → the first layout served for it
}

type node struct {
	name string
	srv  *server.Server
	hs   *http.Server
	url  string
	done chan struct{} // closed when hs.Serve returns
}

// setup starts the nodes, each with a memory LRU in front of a directory
// tier of its own, and solves the warm requests through the entry node.
func (s *serving) setup(ctx context.Context, tr *tracer) error {
	dir, err := os.MkdirTemp(s.scratch, "nodes-*")
	if err != nil {
		return err
	}
	s.dir = dir
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients}}
	s.first = map[string]string{}

	lns := make([]net.Listener, len(s.nodeNames))
	peers := make([]cluster.Peer, len(s.nodeNames))
	for i, name := range s.nodeNames {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return err
		}
		lns[i] = ln
		peers[i] = cluster.Peer{Name: name, URL: "http://" + ln.Addr().String()}
	}
	for i, name := range s.nodeNames {
		disk, err := cache.NewDir(filepath.Join(dir, name))
		if err != nil {
			for _, l := range lns[i:] {
				l.Close()
			}
			return err
		}
		var tier cache.Cache = cache.NewTiered(cache.NewLRU(cache.DefaultMaxEntries, cache.DefaultMaxBytes), disk)
		if tr != nil {
			tier = &tracedCache{inner: tier, node: name, t: tr}
		}
		cfg := server.Config{Workers: serverWorkers, SolveOptions: serveOptions(), Cache: tier}
		if len(s.nodeNames) > 1 {
			cfg.Cluster = cluster.New(cluster.Config{Self: name, Peers: peers, AuditEvery: auditEvery})
		}
		srv := server.New(cfg)
		h := srv.Handler()
		if tr != nil {
			h = tr.handler(name, h)
		}
		n := &node{name: name, srv: srv, hs: &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}, url: peers[i].URL, done: make(chan struct{})}
		go func(ln net.Listener) {
			defer close(n.done)
			_ = n.hs.Serve(ln) // returns ErrServerClosed from close
		}(lns[i])
		s.nodes = append(s.nodes, n)
	}

	for _, ex := range drive(ctx, s.client, s.nodes[0].url, s.warm) {
		if err := ex.failure(); err != nil {
			return fmt.Errorf("warm %s: %w", ex.req.label, err)
		}
		s.first[ex.req.label] = ex.resp.Layout
	}
	return nil
}

func (s *serving) close() {
	for _, n := range s.nodes {
		_ = n.hs.Close()
		<-n.done
		n.srv.Close()
	}
	s.nodes = nil
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.dir != "" {
		_ = os.RemoveAll(s.dir)
		s.dir = ""
	}
}

// probe runs the layer probes, and the full flows the pilp phase times come
// from, on the first probeSample requests by label.
func (s *serving) probe(ctx context.Context, tr *tracer) probeStats {
	byLabel := map[string]request{}
	for _, r := range append(append([]request(nil), s.warm...), s.seq...) {
		byLabel[r.label] = r
	}
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	var items []item
	for _, l := range labels[:min(probeSample, len(labels))] {
		items = append(items, item{l, byLabel[l].circuit})
	}
	ps := probeStrips(ctx, items, tr)
	probeFlows(ctx, items, serveOptions(), &ps)
	return ps
}

// reply is the part of a /v1/solve response the benchmark reads.
type reply struct {
	Status   string `json:"status"`
	CacheHit bool   `json:"cache_hit"`
	Layout   string `json:"layout"`
	Proxied  bool   `json:"proxied"`
	Degraded bool   `json:"degraded"`
	Error    string `json:"error"`
	Stats    *struct {
		RuntimeNS int64 `json:"runtime_ns"`
		Nodes     int   `json:"nodes"`
		LP        *struct {
			Pivots           int `json:"pivots"`
			Refactorizations int `json:"refactorizations"`
			WarmHits         int `json:"warm_hits"`
			WarmMisses       int `json:"warm_misses"`
			ColdSolves       int `json:"cold_solves"`
		} `json:"lp"`
	} `json:"stats"`
}

// exchange is one request and its answer.
type exchange struct {
	id         int
	req        *request
	start, end time.Time
	code       int
	resp       reply
	err        error
}

// failure reports why an exchange does not count as served, or nil.
func (ex *exchange) failure() error {
	switch {
	case ex.err != nil:
		return ex.err
	case ex.code != http.StatusOK || ex.resp.Status != "done":
		return fmt.Errorf("status %d %q: %s", ex.code, ex.resp.Status, ex.resp.Error)
	case ex.resp.Layout == "":
		return errors.New("empty layout")
	}
	return nil
}

// drive sends reqs in order from the closed-loop clients and returns the
// exchanges in request order.
func drive(ctx context.Context, client *http.Client, url string, reqs []request) []exchange {
	out := make([]exchange, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				out[i] = post(ctx, client, url, &reqs[i], i)
			}
		}()
	}
	wg.Wait()
	return out
}

func post(ctx context.Context, client *http.Client, url string, r *request, id int) exchange {
	ex := exchange{id: id, req: r, start: time.Now()}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/solve", bytes.NewReader(r.body))
	if err != nil {
		ex.err, ex.end = err, time.Now()
		return ex
	}
	hr.Header.Set(headerRequest, strconv.Itoa(id))
	resp, err := client.Do(hr)
	if err != nil {
		ex.err, ex.end = err, time.Now()
		return ex
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ex.end = time.Now()
	ex.code = resp.StatusCode
	if err == nil {
		err = json.Unmarshal(body, &ex.resp)
	}
	ex.err = err
	return ex
}

// health is the part of /healthz the benchmark reads.
type health struct {
	Rejected  int64                  `json:"rejected"`
	Coalesced int64                  `json:"coalesced"`
	Cache     *cache.Stats           `json:"cache"`
	Cluster   *cluster.StatsSnapshot `json:"cluster"`
}

func (s *serving) health() ([]health, error) {
	hs := make([]health, len(s.nodes))
	for i, n := range s.nodes {
		resp, err := s.client.Get(n.url + "/healthz")
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&hs[i])
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("%s /healthz: %w", n.name, err)
		}
		if hs[i].Cache == nil {
			hs[i].Cache = &cache.Stats{}
		}
		if hs[i].Cluster == nil {
			hs[i].Cluster = &cluster.StatsSnapshot{}
		}
	}
	return hs, nil
}

func (s *serving) measure(ctx context.Context, tr *tracer) (*pass, error) {
	before, err := s.health()
	if err != nil {
		return nil, err
	}
	p := newPass()
	p.clients = clients
	m := startMeter(tr)
	exs := drive(ctx, s.client, s.nodes[0].url, s.seq)
	m.stop(p)
	after, err := s.health()
	if err != nil {
		return nil, err
	}

	for i := range exs {
		ex := &exs[i]
		p.attempted++
		if err := ex.failure(); err != nil {
			p.failed++
			if len(p.problems) < maxProblems {
				p.problems = append(p.problems, fmt.Sprintf("request %d (%s): %v", ex.id, ex.req.label, err))
			}
			continue
		}
		p.ops++
		p.busy += ex.end.Sub(ex.start).Seconds()
		if !s.hitsOnly || ex.resp.CacheHit {
			p.latencies = append(p.latencies, ms(ex.end.Sub(ex.start)))
		}
		if st := ex.resp.Stats; !ex.resp.CacheHit && st != nil {
			p.jobs = append(p.jobs, float64(st.RuntimeNS)/1e9)
			p.solver.nodes += st.Nodes
			if lp := st.LP; lp != nil {
				p.solver.pivots += lp.Pivots
				p.solver.refactorizations += lp.Refactorizations
				p.solver.warmHits += lp.WarmHits
				p.solver.warmMisses += lp.WarmMisses
				p.solver.coldSolves += lp.ColdSolves
			}
		}
		// Every answer for a label must repeat the first one byte for byte,
		// whichever node, tier or path served it.
		if first, ok := s.first[ex.req.label]; !ok {
			s.first[ex.req.label] = ex.resp.Layout
		} else if first != ex.resp.Layout {
			p.problems = append(p.problems, fmt.Sprintf("request %d (%s): layout differs from the first answer for it", ex.id, ex.req.label))
		}
		if _, ok := p.outputs[ex.req.label]; !ok {
			p.outputs[ex.req.label] = output{ex.resp.Layout, ex.req.circuit}
		}
	}

	var hits, lookups float64
	for i := range after {
		a, b := after[i], before[i]
		p.layer["server.rejected"] += float64(a.Rejected - b.Rejected)
		p.layer["server.coalesced"] += float64(a.Coalesced - b.Coalesced)
		p.layer["cache.entries"] += float64(a.Cache.Entries)
		p.layer["cache.bytes"] += float64(a.Cache.Bytes)
		hits += float64(a.Cache.Hits - b.Cache.Hits)
		lookups += float64(a.Cache.Hits + a.Cache.Misses - b.Cache.Hits - b.Cache.Misses)
	}
	p.layer["cache.hit_ratio"] = ratio(hits, lookups)
	ca, cb := after[0].Cluster, before[0].Cluster
	p.layer["cluster.forwarded"] = float64(ca.Forwarded - cb.Forwarded)
	p.layer["cluster.audited"] = float64(ca.Audited - cb.Audited)
	p.layer["cluster.retried"] = float64(ca.Retried - cb.Retried)
	p.layer["cluster.degraded"] = float64(ca.Degraded - cb.Degraded)
	p.layer["cluster.audit_mismatch"] = float64(ca.AuditMismatch - cb.AuditMismatch)
	if ca.AuditMismatch != cb.AuditMismatch {
		p.problems = append(p.problems, fmt.Sprintf("cross-replica audit found %d mismatches", ca.AuditMismatch-cb.AuditMismatch))
	}
	if tr != nil {
		s.link(p, exs, tr)
	}
	return p, nil
}

// link completes the traced pass's span tree — client request → handler on
// a → handler on b → cache operations, with engine jobs placed from the
// responses' runtime_ns — and derives the serving-layer timings from it.
func (s *serving) link(p *pass, exs []exchange, tr *tracer) {
	spans := tr.snapshot()
	ns := func(t time.Time) int64 { return t.Sub(tr.t0).Nanoseconds() }
	client := map[int]int{} // exchange id → client span
	for i := range exs {
		ex := &exs[i]
		if ex.failure() != nil {
			continue
		}
		client[ex.id] = len(spans)
		spans = append(spans, span{ID: len(spans), Parent: 0, Name: "client.request", Req: strconv.Itoa(ex.id),
			key: ex.req.key, Start: ns(ex.start), End: ns(ex.end)})
	}
	entry := "server.handle@" + s.nodeNames[0]
	handlerOf := map[int]int{} // exchange id → entry-node handler span
	for i := range spans {
		sp := &spans[i]
		if sp.Name != entry || sp.Req == "" {
			continue
		}
		id, _ := strconv.Atoi(sp.Req)
		if c, ok := client[id]; ok {
			sp.Parent, sp.key = c, spans[c].key
			handlerOf[id] = i
		}
	}
	byNodeKey := map[string][]int{}
	for i, sp := range spans {
		if strings.HasPrefix(sp.Name, "server.handle@") && sp.key != "" {
			byNodeKey[sp.node+"|"+sp.key] = append(byNodeKey[sp.node+"|"+sp.key], i)
		}
	}
	// containing finds the span among cands that encloses sp.
	containing := func(cands []int, sp span) int {
		for _, c := range cands {
			if spans[c].Start <= sp.Start && sp.End <= spans[c].End && c != sp.ID {
				return c
			}
		}
		return -1
	}
	for i := range spans {
		sp := &spans[i]
		var parent int
		switch {
		case sp.Name == entry || sp.Name == "client.request" || sp.Parent != 0 || sp.key == "":
			continue
		case strings.HasPrefix(sp.Name, "server.handle@"):
			parent = containing(byNodeKey[s.nodeNames[0]+"|"+sp.key], *sp)
		default: // a cache operation
			parent = containing(byNodeKey[sp.node+"|"+sp.key], *sp)
		}
		if parent >= 0 {
			sp.Parent, sp.Req = parent, spans[parent].Req
		}
	}
	innerOf := map[int]int{} // entry handler span → the forwarded handler span under it
	for i, sp := range spans {
		if strings.HasPrefix(sp.Name, "server.handle@") && sp.Name != entry && sp.Parent > 0 {
			innerOf[sp.Parent] = i
		}
	}

	var clientNS, queueNS, hopNS, cacheNS int64
	var queueMS, hitUS, hopMS, auditedMS, gets, puts []float64
	for _, sp := range spans {
		switch sp.Name {
		case "client.request":
			clientNS += sp.dur()
		case "cache.get":
			gets = append(gets, float64(sp.dur())/1e3)
			cacheNS += sp.dur()
		case "cache.put":
			puts = append(puts, float64(sp.dur())/1e3)
			cacheNS += sp.dur()
		}
	}
	for i := range exs {
		ex := &exs[i]
		h, ok := handlerOf[ex.id]
		if !ok {
			continue
		}
		solver := h
		inner, forwarded := innerOf[h]
		if forwarded {
			solver = inner
			hop := spans[h].dur() - spans[inner].dur()
			hopNS += hop
			if ex.resp.CacheHit {
				if cluster.AuditSampled(ex.req.key, auditEvery) {
					auditedMS = append(auditedMS, float64(spans[h].dur())/1e6)
				} else {
					hopMS = append(hopMS, float64(hop)/1e6)
				}
			}
		}
		if ex.resp.CacheHit {
			if !ex.resp.Proxied {
				hitUS = append(hitUS, float64(spans[h].dur())/1e3)
			}
			continue
		}
		if st := ex.resp.Stats; st != nil && st.RuntimeNS > 0 {
			sv := spans[solver]
			spans = append(spans, span{ID: len(spans), Parent: solver, Name: "engine.job", Req: sv.Req,
				Start: max(sv.Start, sv.End-st.RuntimeNS), End: sv.End})
			wait := max(sv.dur()-st.RuntimeNS, 0)
			queueNS += wait
			queueMS = append(queueMS, float64(wait)/1e6)
		}
	}
	tr.replace(spans)

	total := float64(clientNS)
	p.layer["server.queue_wait_share"] = ratio(float64(queueNS), total)
	p.layer["cache.time_share"] = ratio(float64(cacheNS), total)
	p.layer["cluster.time_share"] = ratio(float64(hopNS), total)
	tr.mu.Lock()
	p.solver.peakEta = tr.peakEta
	tr.mu.Unlock()
	addDist(p.detail, "server.queue_wait_ms", "ms", queueMS)
	addDist(p.detail, "server.hit_us", "us", hitUS)
	addDist(p.detail, "cache.get_us", "us", gets)
	addDist(p.detail, "cache.put_us", "us", puts)
	addDist(p.detail, "cluster.hop_ms", "ms", hopMS)
	addDist(p.detail, "cluster.audited_hit_ms", "ms", auditedMS)
}
