package cluster

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"rficlayout/internal/faultinject"
)

func TestParsePeers(t *testing.T) {
	peers, err := ParsePeers("a=http://h1:8080, b=http://h2:8080,http://h3:8080")
	if err != nil {
		t.Fatal(err)
	}
	want := []Peer{
		{Name: "a", URL: "http://h1:8080"},
		{Name: "b", URL: "http://h2:8080"},
		{Name: "http://h3:8080", URL: "http://h3:8080"},
	}
	if len(peers) != len(want) {
		t.Fatalf("peers = %v, want %v", peers, want)
	}
	for i := range want {
		if peers[i] != want[i] {
			t.Errorf("peer %d = %v, want %v", i, peers[i], want[i])
		}
	}

	for _, bad := range []string{"a=http://h1,a=http://h2", "=http://h1", "a="} {
		if _, err := ParsePeers(bad); err == nil {
			t.Errorf("ParsePeers(%q) accepted, want error", bad)
		}
	}
}

// testKeys returns n distinct hex content addresses with the statistics the
// ring sees in production — SHA-256 output, not sequential strings. That
// matters: FNV places near-identical strings close together on the circle, so
// sequential keys would all land in a handful of arcs and prove nothing about
// balance.
func testKeys(n int) []string {
	out := make([]string, n)
	for i := range out {
		sum := sha256.Sum256([]byte(fmt.Sprintf("circuit-%d", i)))
		out[i] = hex.EncodeToString(sum[:])
	}
	return out
}

func TestRingDeterministicAndBalanced(t *testing.T) {
	peers := []Peer{{Name: "a", URL: "u1"}, {Name: "b", URL: "u2"}, {Name: "c", URL: "u3"}}
	r1 := NewRing(peers)
	// Same name set in a different order and with different URLs must map every
	// key identically: ownership is a pure function of the sorted name set.
	shuffled := []Peer{{Name: "c", URL: "x3"}, {Name: "a", URL: "x1"}, {Name: "b", URL: "x2"}}
	r2 := NewRing(shuffled)

	counts := map[string]int{}
	for _, k := range testKeys(1000) {
		p1, ok1 := r1.Owner(k)
		p2, ok2 := r2.Owner(k)
		if !ok1 || !ok2 {
			t.Fatal("non-empty ring owned nothing")
		}
		if p1.Name != p2.Name {
			t.Fatalf("key %s: owner %q vs %q across peer orderings", k[:8], p1.Name, p2.Name)
		}
		counts[p1.Name]++
	}
	if len(counts) != 3 {
		t.Errorf("owners seen = %v, want all 3 peers", counts)
	}
	// 64 vnodes gives rough, not perfect, balance; guard against the
	// pathological case (one peer starved), not hash variance.
	for name, n := range counts {
		if n < 50 {
			t.Errorf("peer %q owns only %d/1000 keys; ring badly unbalanced", name, n)
		}
	}
}

func TestRingMembershipChangeOnlyRemapsLostKeys(t *testing.T) {
	full := NewRing([]Peer{{Name: "a"}, {Name: "b"}, {Name: "c"}})
	without := NewRing([]Peer{{Name: "a"}, {Name: "b"}})
	moved := 0
	for _, k := range testKeys(1000) {
		before, _ := full.Owner(k)
		after, _ := without.Owner(k)
		if before.Name != "c" && before.Name != after.Name {
			t.Fatalf("key %s moved %q -> %q though its owner stayed in the ring", k[:8], before.Name, after.Name)
		}
		if before.Name == "c" {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("peer c owned no keys; test proves nothing")
	}
}

func TestEmptyRingOwnsNothing(t *testing.T) {
	if _, ok := NewRing(nil).Owner("k"); ok {
		t.Fatal("empty ring claimed an owner")
	}
	var c *Cluster
	if _, remote := c.Owner("k"); remote {
		t.Fatal("nil cluster claimed a remote owner")
	}
	if c.Snapshot() != nil {
		t.Fatal("nil cluster returned a snapshot")
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	cfg := Config{BackoffBase: 50 * time.Millisecond, BackoffMax: 2 * time.Second}
	for attempt := 1; attempt <= 6; attempt++ {
		d1 := backoffDelay(cfg, "somekey", attempt)
		d2 := backoffDelay(cfg, "somekey", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff %v vs %v not deterministic", attempt, d1, d2)
		}
		if d1 < cfg.BackoffBase/2 {
			t.Errorf("attempt %d: backoff %v below half the base", attempt, d1)
		}
		if d1 > cfg.BackoffMax+cfg.BackoffMax/2 {
			t.Errorf("attempt %d: backoff %v above 1.5x the cap", attempt, d1)
		}
	}
	if backoffDelay(cfg, "key-a", 1) == backoffDelay(cfg, "key-b", 1) {
		t.Log("note: two keys drew identical jitter (possible but unlikely)")
	}
}

func TestAuditSampledDeterministicRate(t *testing.T) {
	const every = 8
	sampled := 0
	for _, k := range testKeys(4000) {
		if AuditSampled(k, every) {
			sampled++
		}
		if AuditSampled(k, every) != AuditSampled(k, every) {
			t.Fatal("AuditSampled not deterministic")
		}
	}
	// A hash sample of rate 1/8 over 4000 keys: accept a generous band.
	if sampled < 250 || sampled > 750 {
		t.Errorf("sampled %d/4000 at every=%d, want roughly 500", sampled, every)
	}
	if AuditSampled("k", 0) || AuditSampled("k", -1) {
		t.Error("AuditSampled fired with sampling disabled")
	}
}

func TestRetryAfterFormat(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"}, {time.Millisecond, "1"}, {time.Second, "1"}, {1500 * time.Millisecond, "2"}, {3 * time.Second, "3"},
	} {
		if got := RetryAfter(tc.d); got != tc.want {
			t.Errorf("RetryAfter(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}

// newTestCluster builds a two-node cluster whose remote peer is the given
// test server, with fast backoff so retry tests stay quick.
func newTestCluster(t *testing.T, ownerURL string, cfgTweak func(*Config)) (*Cluster, Peer) {
	t.Helper()
	cfg := Config{
		Self:           "self",
		Peers:          []Peer{{Name: "self", URL: "http://unused"}, {Name: "owner", URL: ownerURL}},
		AttemptTimeout: 2 * time.Second,
		MaxAttempts:    3,
		BackoffBase:    time.Millisecond,
		BackoffMax:     5 * time.Millisecond,
		RetryBudget:    10,
	}
	if cfgTweak != nil {
		cfgTweak(&cfg)
	}
	return New(cfg), Peer{Name: "owner", URL: ownerURL}
}

func TestForwardRetriesUntilSuccess(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get(HeaderForwardedFrom); got != "self" {
			t.Errorf("forwarded request missing ownership header, got %q", got)
		}
		if calls.Add(1) < 3 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, "layout-bytes")
	}))
	defer srv.Close()

	c, owner := newTestCluster(t, srv.URL, nil)
	body, err := c.Forward(context.Background(), owner, "k1", []byte("circuit"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "layout-bytes" {
		t.Fatalf("body = %q", body)
	}
	if got := c.stats.Retried.Load(); got != 2 {
		t.Errorf("retried = %d, want 2", got)
	}
	if got := c.stats.AttemptFailures.Load(); got != 2 {
		t.Errorf("attempt failures = %d, want 2", got)
	}
}

func TestForwardDoesNotRetryClientErrors(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, "bad circuit", http.StatusBadRequest)
	}))
	defer srv.Close()

	c, owner := newTestCluster(t, srv.URL, nil)
	if _, err := c.Forward(context.Background(), owner, "k1", []byte("x"), nil); err == nil {
		t.Fatal("4xx forwarded as success")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("owner called %d times for a 4xx, want 1 (not retryable)", n)
	}
}

func TestForwardHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "admission queue full, retry later", http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	// BackoffMax above 1s so the hint is not clipped.
	c, owner := newTestCluster(t, srv.URL, func(cfg *Config) { cfg.BackoffMax = 2 * time.Second })
	start := time.Now()
	if _, err := c.Forward(context.Background(), owner, "k1", nil, nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Errorf("retry after %v, want >= 1s per the owner's Retry-After hint", elapsed)
	}
}

func TestForwardRetryBudgetExhaustion(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	// Budget of 1 token: the operation earns a tenth, has 10 tenths initially
	// (the full budget), spends it on the first retry, then is denied.
	c, owner := newTestCluster(t, srv.URL, func(cfg *Config) {
		cfg.RetryBudget = 1
		cfg.MaxAttempts = 5
	})
	if _, err := c.Forward(context.Background(), owner, "k1", nil, nil); err == nil {
		t.Fatal("forward succeeded against a dead owner")
	}
	if got := c.stats.BudgetExhausted.Load(); got != 1 {
		t.Errorf("budget_exhausted = %d, want 1", got)
	}
	if got := c.stats.Retried.Load(); got != 1 {
		t.Errorf("retried = %d, want 1 (second retry denied by budget)", got)
	}
}

func TestForwardInjectedFaultsCountAsAttemptFailures(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		fmt.Fprint(w, "ok")
	}))
	defer srv.Close()

	plan, err := faultinject.ParsePlan(faultinject.PointClusterDial + "=1.0/2")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.New(plan, 7))
	defer faultinject.Disable()

	c, owner := newTestCluster(t, srv.URL, nil)
	if _, err := c.Forward(context.Background(), owner, "k1", nil, nil); err != nil {
		t.Fatal(err)
	}
	// Budget of 2 dial faults: attempts 1 and 2 fail before any request is
	// issued, attempt 3 reaches the owner.
	if n := calls.Load(); n != 1 {
		t.Errorf("owner called %d times, want 1 (dial faults fail before I/O)", n)
	}
	if got := c.stats.AttemptFailures.Load(); got != 2 {
		t.Errorf("attempt failures = %d, want 2 (== fired faults)", got)
	}
	if got := c.stats.Retried.Load(); got != 2 {
		t.Errorf("retried = %d, want 2", got)
	}
}

func TestForwardCancelledContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "down", http.StatusInternalServerError)
	}))
	defer srv.Close()

	c, owner := newTestCluster(t, srv.URL, func(cfg *Config) { cfg.BackoffBase = time.Hour; cfg.BackoffMax = time.Hour })
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Forward(ctx, owner, "k1", nil, nil)
	if err == nil {
		t.Fatal("forward succeeded after context expiry")
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("cancelled forward did not abort the backoff sleep")
	}
}
