package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rficlayout/internal/cache"
	"rficlayout/internal/cluster"
	"rficlayout/internal/engine"
	"rficlayout/internal/faultinject"
	"rficlayout/internal/netlist"
)

// clusterNode is one member of an in-process test topology.
type clusterNode struct {
	name  string
	srv   *Server
	ts    *httptest.Server
	cache cache.Cache
	cl    *cluster.Cluster
}

func (n *clusterNode) url() string { return n.ts.URL }

// startTwoNodes builds a real two-node cluster on loopback listeners. The
// listeners are created before the servers so both rings see final URLs, and
// the ring hashes names ("a", "b"), so ownership is independent of the random
// ports. tweak, when non-nil, adjusts each node's server and cluster config
// (the server's Cluster field is set afterwards).
func startTwoNodes(t *testing.T, tweak func(*Config, *cluster.Config)) map[string]*clusterNode {
	t.Helper()
	names := []string{"a", "b"}
	lns := map[string]net.Listener{}
	var peers []cluster.Peer
	for _, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[name] = ln
		peers = append(peers, cluster.Peer{Name: name, URL: "http://" + ln.Addr().String()})
	}
	nodes := map[string]*clusterNode{}
	for _, name := range names {
		cc := cluster.Config{
			Self:           name,
			Peers:          peers,
			AttemptTimeout: 30 * time.Second,
			BackoffBase:    time.Millisecond,
			BackoffMax:     10 * time.Millisecond,
			AuditEvery:     1,
		}
		cfg := fastConfig()
		cfg.Cache = cache.NewLRU(16, 0)
		if tweak != nil {
			tweak(&cfg, &cc)
		}
		cl := cluster.New(cc)
		cfg.Cluster = cl
		s := New(cfg)
		ts := &httptest.Server{Listener: lns[name], Config: &http.Server{Handler: s.Handler()}}
		ts.Start()
		t.Cleanup(func() { ts.Close(); s.Close() })
		nodes[name] = &clusterNode{name: name, srv: s, ts: ts, cache: cfg.Cache, cl: cl}
	}
	return nodes
}

// circuitOwnedBy returns a solvable netlist whose content key the given
// cluster maps to the wanted peer, by varying the circuit name until the ring
// cooperates.
func circuitOwnedBy(t *testing.T, cl *cluster.Cluster, want string) (string, string) {
	t.Helper()
	for i := 0; i < 100; i++ {
		nl := strings.Replace(tinyNetlist, "circuit tiny", fmt.Sprintf("circuit tiny%d", i), 1)
		circuit, err := netlist.ParseString(nl)
		if err != nil {
			t.Fatal(err)
		}
		key := cache.Key(circuit, fastConfig().SolveOptions)
		if p, _ := cl.Owner(key); p.Name == want {
			return nl, key
		}
	}
	t.Fatalf("no test circuit hashes to peer %q", want)
	return "", ""
}

func clusterHealth(t *testing.T, url string) *cluster.StatsSnapshot {
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
	if h.Cluster == nil {
		t.Fatal("healthz missing cluster stats on a clustered node")
	}
	return h.Cluster
}

// TestClusterForwardToOwner drives a solve through the non-owner node and
// checks the full forwarding contract: the result is proxied from the owner,
// byte-identical to solving at the owner directly, and the key's cache entry
// lives only on the owner (cache affinity).
func TestClusterForwardToOwner(t *testing.T) {
	nodes := startTwoNodes(t, nil)
	nl, key := circuitOwnedBy(t, nodes["a"].cl, "b")
	sender, owner := nodes["a"], nodes["b"]

	resp, sr := postSolve(t, sender.url()+"/v1/solve", nl)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded solve: status %d (%s)", resp.StatusCode, sr.Error)
	}
	if !sr.Proxied || sr.Owner != "b" {
		t.Fatalf("response proxied=%v owner=%q, want proxied by b", sr.Proxied, sr.Owner)
	}
	if sr.Degraded {
		t.Fatal("healthy forward marked degraded")
	}
	if sr.Layout == "" {
		t.Fatal("forwarded solve returned no layout")
	}

	// Byte identity with a direct solve at the owner (a cache hit there:
	// the forwarded solve populated the owner's tier).
	_, direct := postSolve(t, owner.url()+"/v1/solve", nl)
	if direct.Layout != sr.Layout {
		t.Error("proxied layout differs from the owner's direct solve")
	}
	if !direct.CacheHit {
		t.Error("owner's tier did not retain the forwarded solve")
	}

	// Cache affinity: the sender must not have cached the remote-owned key.
	if _, ok := sender.cache.Get(key); ok {
		t.Error("sender cached a remote-owned key")
	}

	st := clusterHealth(t, sender.url())
	if st.Forwarded != 1 || st.Degraded != 0 || st.Retried != 0 {
		t.Errorf("sender stats = %+v, want exactly 1 clean forward", st)
	}
	// AuditEvery=1: the proxied result was audited and matched.
	if st.Audited != 1 || st.AuditMismatch != 0 {
		t.Errorf("audited=%d mismatch=%d, want 1/0", st.Audited, st.AuditMismatch)
	}
}

// TestClusterForwardedRequestNotReforwarded pins loop safety: a request
// carrying the ownership header is solved locally even by a node whose own
// ring says another peer owns it.
func TestClusterForwardedRequestNotReforwarded(t *testing.T) {
	nodes := startTwoNodes(t, nil)
	nl, _ := circuitOwnedBy(t, nodes["a"].cl, "b")

	// Send to a (not the owner) with the header claiming b already routed it
	// here. a must solve it itself — re-forwarding would bounce it to b, and
	// under skewed peer lists could cycle forever.
	req, err := http.NewRequest(http.MethodPost, nodes["a"].url()+"/v1/solve", strings.NewReader(nl))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.HeaderForwardedFrom, "b")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || sr.Proxied || sr.Degraded {
		t.Fatalf("forwarded request: status=%d proxied=%v degraded=%v, want a plain local solve", resp.StatusCode, sr.Proxied, sr.Degraded)
	}
	if st := clusterHealth(t, nodes["a"].url()); st.Forwarded != 0 {
		t.Errorf("node a re-forwarded a forwarded request (forwarded=%d)", st.Forwarded)
	}
}

// TestClusterDegradedFallback points the owner's URL at a dead port: the
// forward exhausts its attempts and the sender solves locally, marked
// degraded, with the layout byte-identical to a single-node solve.
func TestClusterDegradedFallback(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadURL := "http://" + ln.Addr().String()
	ln.Close()

	cc := cluster.Config{
		Self:           "a",
		Peers:          []cluster.Peer{{Name: "a", URL: "http://unused"}, {Name: "b", URL: deadURL}},
		AttemptTimeout: 2 * time.Second,
		MaxAttempts:    2,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
	}
	cl := cluster.New(cc)
	cfg := fastConfig()
	cfg.Cache = cache.NewLRU(16, 0)
	cfg.Cluster = cl
	_, ts := startServer(t, cfg)

	nl, key := circuitOwnedBy(t, cl, "b")
	resp, sr := postSolve(t, ts.URL+"/v1/solve", nl)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded solve: status %d (%s)", resp.StatusCode, sr.Error)
	}
	if !sr.Degraded || sr.Proxied {
		t.Fatalf("degraded=%v proxied=%v, want a degraded local solve", sr.Degraded, sr.Proxied)
	}

	// Byte identity with a plain single-node solve of the same circuit.
	_, baseTS := startServer(t, fastConfig())
	_, base := postSolve(t, baseTS.URL+"/v1/solve", nl)
	if base.Layout != sr.Layout {
		t.Error("degraded layout differs from single-node solve — determinism broken")
	}

	// Degraded solves stay out of the local cache: the key still belongs to b.
	if _, ok := cfg.Cache.Get(key); ok {
		t.Error("degraded solve cached under a remote-owned key")
	}
	st := clusterHealth(t, ts.URL)
	if st.Degraded != 1 || st.Forwarded != 0 {
		t.Errorf("stats = %+v, want exactly 1 degraded solve", st)
	}
	if st.AttemptFailures != st.Retried+st.Degraded {
		t.Errorf("attempt_failures=%d retried=%d degraded=%d: accounting identity broken",
			st.AttemptFailures, st.Retried, st.Degraded)
	}
}

// TestClusterAuditCatchesMismatch gives the node a lying owner: a fake peer
// answering well-formed responses with the wrong layout. The cross-replica
// audit must catch the difference, alarm, and serve the locally solved bytes.
func TestClusterAuditCatchesMismatch(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, &solveResponse{
			ID:     "fake-1",
			Status: string(statusDone),
			Layout: "layout lies\n",
		})
	}))
	defer fake.Close()

	cc := cluster.Config{
		Self:           "a",
		Peers:          []cluster.Peer{{Name: "a", URL: "http://unused"}, {Name: "b", URL: fake.URL}},
		AttemptTimeout: 30 * time.Second,
		AuditEvery:     1,
	}
	cl := cluster.New(cc)
	cfg := fastConfig()
	cfg.Cluster = cl
	_, ts := startServer(t, cfg)

	nl, _ := circuitOwnedBy(t, cl, "b")
	resp, sr := postSolve(t, ts.URL+"/v1/solve", nl)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d (%s)", resp.StatusCode, sr.Error)
	}
	if sr.Layout == "layout lies\n" {
		t.Fatal("audit let the owner's wrong bytes through")
	}
	if sr.Proxied {
		t.Error("mismatched result still marked proxied")
	}
	if !strings.HasPrefix(sr.Layout, "layout tiny") {
		t.Errorf("audit fallback layout looks wrong: %q", sr.Layout[:min(40, len(sr.Layout))])
	}
	st := clusterHealth(t, ts.URL)
	if st.Audited != 1 || st.AuditMismatch != 1 {
		t.Errorf("audited=%d mismatch=%d, want 1/1", st.Audited, st.AuditMismatch)
	}
}

// TestReadyzLifecycle pins the /readyz contract: ready while serving,
// draining after StartDraining (while /healthz stays ok), not_ready before
// the pool starts.
func TestReadyzLifecycle(t *testing.T) {
	s, ts := startServer(t, fastConfig())

	getReady := func() (int, string) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body["status"]
	}

	if code, status := getReady(); code != http.StatusOK || status != "ready" {
		t.Fatalf("fresh server readyz = %d %q, want 200 ready", code, status)
	}

	// Before the pool starts: not_ready. (New flips ready on just before
	// returning; simulate the pre-start window directly.)
	s.ready.Store(false)
	if code, status := getReady(); code != http.StatusServiceUnavailable || status != "not_ready" {
		t.Fatalf("pre-start readyz = %d %q, want 503 not_ready", code, status)
	}
	s.ready.Store(true)

	s.StartDraining()
	if code, status := getReady(); code != http.StatusServiceUnavailable || status != "draining" {
		t.Fatalf("draining readyz = %d %q, want 503 draining", code, status)
	}
	// Liveness is unaffected: a draining node is still alive.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain = %d, want 200", resp.StatusCode)
	}
}

// TestAdmissionRejectionRetryAfterAndWaiterRelease fills the queue and checks
// three things about the 503 that comes back: it carries a Retry-After hint,
// polling /v1/jobs for the rejected job answers the same 503 with the same
// hint, and the rejected job's waiter refcount drops to zero (the creator's
// slot is released, so a rejected job can never pin cancellation bookkeeping
// — the regression the forwarding path would turn into a leaked remote
// solve).
func TestAdmissionRejectionRetryAfterAndWaiterRelease(t *testing.T) {
	release := make(chan struct{})
	blocking := func(ctx context.Context, job engine.Job, logf func(string, ...interface{})) engine.Result {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return engine.Result{ID: job.ID, Err: context.Canceled}
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

	// Distinct circuits so singleflight cannot coalesce them: one occupies
	// the worker, one fills the queue, the third is rejected.
	distinct := func(i int) string {
		return strings.Replace(tinyNetlist, "circuit tiny", fmt.Sprintf("circuit fill%d", i), 1)
	}
	for i := 0; i < 2; i++ {
		resp, sr := postSolve(t, ts.URL+"/v1/solve?async=1", distinct(i))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("filler %d: status %d (%s)", i, resp.StatusCode, sr.Error)
		}
	}
	// The first filler may still be queued for an instant; wait until the
	// worker picked it up so the queue has exactly one slot taken.
	deadline := time.Now().Add(5 * time.Second)
	for len(s.queue) != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth = %d, want 1", len(s.queue))
		}
		time.Sleep(time.Millisecond)
	}

	resp, sr := postSolve(t, ts.URL+"/v1/solve", distinct(2))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d (%+v), want 503", resp.StatusCode, sr)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 rejection carries no Retry-After header")
	}
	poll, err := http.Get(ts.URL + "/v1/jobs/" + sr.ID)
	if err != nil {
		t.Fatal(err)
	}
	poll.Body.Close()
	if poll.StatusCode != http.StatusServiceUnavailable || poll.Header.Get("Retry-After") == "" {
		t.Errorf("polling the rejected job = %d with Retry-After %q, want 503 with a hint",
			poll.StatusCode, poll.Header.Get("Retry-After"))
	}
	j, ok := s.jobs.get(sr.ID)
	if !ok {
		t.Fatalf("rejected job %q not registered", sr.ID)
	}
	if n := j.waiters.Load(); n != 0 {
		t.Errorf("rejected job holds %d waiter slots, want 0 (creator's slot leaked)", n)
	}
}

// TestForwardedLeaderFollowerDetaches is the singleflight regression for the
// forwarding path: a follower joining a remote-owned leader and timing out
// must detach cleanly (its own 504, refcount back to the creator alone), and
// the creator leaving must then abort the in-flight forward.
func TestForwardedLeaderFollowerDetaches(t *testing.T) {
	started := make(chan struct{}, 8)
	release := make(chan struct{})
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		select {
		case <-release:
			writeJSON(w, http.StatusOK, &solveResponse{ID: "fake", Status: string(statusDone), Layout: "layout slow\n"})
		case <-r.Context().Done():
		}
	}))
	defer fake.Close()

	cc := cluster.Config{
		Self:  "a",
		Peers: []cluster.Peer{{Name: "a", URL: "http://unused"}, {Name: "b", URL: fake.URL}},
		// One attempt, generous timeout: the forward just hangs until the
		// fake answers or the job context dies.
		AttemptTimeout: 30 * time.Second,
		MaxAttempts:    1,
		AuditEvery:     -1,
	}
	cl := cluster.New(cc)
	cfg := fastConfig()
	cfg.Cluster = cl
	s := newWithSolver(cfg, func(ctx context.Context, job engine.Job, logf func(string, ...interface{})) engine.Result {
		return engine.Result{ID: job.ID, Err: ctx.Err()}
	})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()

	nl, key := circuitOwnedBy(t, cl, "b")
	leaderDone := make(chan solveResponse, 1)
	go func() {
		_, sr := postSolve(t, ts.URL+"/v1/solve", nl)
		leaderDone <- sr
	}()
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("forward never reached the fake owner")
	}

	// A follower with its own short timeout joins the remote-owned leader.
	resp, _ := postSolve(t, ts.URL+"/v1/solve?timeout=150ms", nl)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("follower status = %d, want 504", resp.StatusCode)
	}

	// The follower detached: only the creator's slot remains, and the
	// forward is still in flight.
	s.inflightMu.Lock()
	j := s.inflight[key]
	s.inflightMu.Unlock()
	if j == nil {
		t.Fatal("leader job left the inflight index while its forward is still running")
	}
	if n := j.waiters.Load(); n != 1 {
		t.Errorf("leader waiters = %d after follower timeout, want 1 (creator only)", n)
	}

	// Release the owner; the creator gets the proxied result.
	close(release)
	select {
	case sr := <-leaderDone:
		if !sr.Proxied || sr.Layout != "layout slow\n" {
			t.Errorf("leader response = %+v, want the proxied result", sr)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("leader never finished after the owner answered")
	}
	if n := j.waiters.Load(); n != 0 {
		t.Errorf("leader waiters = %d after completion, want 0", n)
	}
}

// clusterChaosFaultSpec is the two-node battery's schedule: every phase of a
// peer forward can fail (dial, mid-exchange, body read), plus torn writes on
// either node's Dir tier. Dial fails outright with a budget equal to
// MaxAttempts, so the first forward deterministically exhausts its attempts
// and degrades to a local solve; every budget is finite, so the run always
// clears the faults and must return to clean forwarded service.
const clusterChaosFaultSpec = "cluster.dial=1/3,cluster.forward=0.4/2,cluster.body=0.4/2,cache.dir.torn=0.5/2"

// TestClusterChaosScheduleSurvival is the two-node chaos battery: every
// request goes to node a, two circuits owned by each node, 8 rounds, while
// injected cluster faults fail forwards and torn writes corrupt either node's
// Dir tier. Both nodes must survive, every fired fault must reconcile
// exactly against the cluster and cache counters, the audit must find no
// mismatch, every layout — local, proxied or degraded — must be
// byte-identical to a fault-free single-node baseline, and a second pass at
// the same seed must replay the request log and fault schedule exactly.
func TestClusterChaosScheduleSurvival(t *testing.T) {
	const rounds, auditEvery = 8, 2
	type chaosCase struct{ name, body, key, owner, baseline string }

	// Ownership hashes peer names, not URLs, so a URL-less ring picks the
	// same owners as the live nodes will.
	ring := cluster.New(cluster.Config{Self: "a", Peers: []cluster.Peer{{Name: "a"}, {Name: "b"}}})
	var cases []chaosCase
	owned := map[string]int{}
	for i := 0; owned["a"] < 2 || owned["b"] < 2; i++ {
		if i == 50 {
			t.Fatal("the chaos circuit family never covered both owners")
		}
		c, err := netlist.ParseString(chaosCircuit(i))
		if err != nil {
			t.Fatal(err)
		}
		key := cache.Key(c, fastConfig().SolveOptions)
		if p, _ := ring.Owner(key); owned[p.Name] < 2 {
			owned[p.Name]++
			cases = append(cases, chaosCase{name: c.Name, body: chaosCircuit(i), key: key, owner: p.Name})
		}
	}
	_, base := startServer(t, fastConfig())
	for i, c := range cases {
		resp, sr := postSolve(t, base.URL+"/v1/solve", c.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("baseline %s: status %d (%s)", c.name, resp.StatusCode, sr.Error)
		}
		cases[i].baseline = sr.Layout
	}

	requireReplay(t, func(t *testing.T, seed int64) chaosRun {
		// The registry is process-global: both nodes draw from one schedule
		// in request order. Dir tiers only, so torn writes surface as
		// quarantines instead of hiding behind a memory tier.
		reg := armFaults(t, clusterChaosFaultSpec, seed)
		nodes := startTwoNodes(t, func(cfg *Config, cc *cluster.Config) {
			dir, err := cache.NewDir(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			cfg.Cache = dir
			cc.MaxAttempts = 3
			cc.AuditEvery = auditEvery
		})

		var log []chaosRecord
		var wantAudited int64
		for r := 0; r < rounds; r++ {
			for _, c := range cases {
				rec := solveWithRetry(t, nodes["a"].url(), r, c.name, c.body, c.baseline)
				if !rec.Match {
					t.Errorf("round %d %s: layout differs from the single-node baseline (proxied=%v degraded=%v)", r, c.name, rec.Proxied, rec.Degraded)
				}
				// Provenance the counters cannot see: a b-owned request comes
				// back proxied or degraded, an a-owned one takes neither path.
				if (c.owner == "b") != (rec.Proxied || rec.Degraded) {
					t.Errorf("round %d %s owned by %s: proxied=%v degraded=%v", r, c.name, c.owner, rec.Proxied, rec.Degraded)
				}
				// Audit sampling is a pure function of the key, so the test
				// knows exactly which proxied results were audited.
				if rec.Proxied && cluster.AuditSampled(c.key, auditEvery) {
					wantAudited++
				}
				// Once every budget is exhausted the final round forwards
				// cleanly.
				if rec.Degraded && r == rounds-1 {
					t.Errorf("round %d %s degraded in the final round; every fault budget should be spent", r, c.name)
				}
				log = append(log, rec)
			}
		}

		counts := reg.Counts()
		firedCluster := counts[faultinject.PointClusterDial].Fired + counts[faultinject.PointClusterForward].Fired +
			counts[faultinject.PointClusterBody].Fired
		hA, hB := getHealth(t, nodes["a"].url()), getHealth(t, nodes["b"].url())
		ca, cb := hA.Cluster, hB.Cluster
		if ca == nil || cb == nil || hA.Cache == nil || hB.Cache == nil {
			t.Fatalf("healthz missing cluster or cache stats: a %+v, b %+v", hA, hB)
		}
		// Every failed forward attempt is one fired cluster fault; an
		// operation's failures are its retries when it finally succeeds,
		// retries+1 when it degrades.
		if ca.AttemptFailures != firedCluster || ca.Retried+ca.Degraded != firedCluster {
			t.Errorf("attempt failures %d, retried %d + degraded %d, want both = %d fired cluster faults",
				ca.AttemptFailures, ca.Retried, ca.Degraded, firedCluster)
		}
		// Each b-owned request is one forward operation (a never caches
		// remote-owned keys): it either forwarded or degraded.
		if want := int64(rounds * owned["b"]); ca.Forwarded+ca.Degraded != want {
			t.Errorf("forwarded %d + degraded %d, want %d forward operations", ca.Forwarded, ca.Degraded, want)
		}
		// Loop safety: b forwards nothing back, and neither node loses a
		// request to a panic, rejection or failure the plan never injected.
		if cb.Forwarded != 0 || cb.Degraded != 0 {
			t.Errorf("node b cluster stats %+v, want no forwards", cb)
		}
		if hA.Panics+hB.Panics+hA.Rejected+hB.Rejected+hA.Failed+hB.Failed != 0 {
			t.Errorf("unexpected losses: a panics=%d rejected=%d failed=%d, b panics=%d rejected=%d failed=%d",
				hA.Panics, hA.Rejected, hA.Failed, hB.Panics, hB.Rejected, hB.Failed)
		}
		// Each torn write is read back as a quarantine on the key's owner.
		if got, want := hA.Cache.Corrupt+hB.Cache.Corrupt, counts[faultinject.PointCacheTorn].Fired; got != want {
			t.Errorf("quarantined %d, want %d torn writes", got, want)
		}
		if ca.Audited != wantAudited || ca.AuditMismatch != 0 {
			t.Errorf("audited %d (want %d), mismatches %d (want 0)", ca.Audited, wantAudited, ca.AuditMismatch)
		}
		return finishChaos(t, reg, log)
	})
}
