// Package cluster turns a set of rficserve processes into one logical
// solver. A consistent-hash ring over the content address (the SHA-256 cache
// key of canonical circuit + options fingerprint) routes every solve to its
// owner node — cache affinity for free, since the owner's persistent tier
// accumulates exactly the keys it owns — and a retrying peer client forwards
// non-owned requests there. Robustness is the design center:
//
//   - Per-attempt timeouts, bounded retries and deterministic jittered
//     exponential backoff on the peer path; a process-wide retry budget so a
//     brownout cannot amplify itself into a retry storm.
//   - Degraded mode: when the owner is unreachable or over budget, the
//     receiving node solves locally instead of failing the request — the
//     determinism contract guarantees the bytes are identical, so degrading
//     costs cache affinity, never correctness. Counted on /healthz.
//   - Loop safety: a forwarded request carries the ownership header and is
//     never re-forwarded, so peer-list skew during membership change cannot
//     create forwarding cycles; at the owner it joins the regular
//     singleflight index, so N nodes forwarding the same circuit still solve
//     it once.
//   - Cross-replica audit: a deterministic sample of proxied results (a pure
//     function of the content key) is re-solved locally and compared
//     byte-for-byte — the determinism contract as a continuous distributed
//     correctness oracle. Any difference alarms via counter + log.
//
// Membership is a static peer list ([name=]url entries); the ring is a pure
// function of the name set, so an edited list rehashes identically on every
// node, and the existing SIGTERM drain (plus /readyz turning "draining")
// hands off in-flight work before a member leaves.
package cluster

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// Header names of the peer protocol.
const (
	// HeaderForwardedFrom carries the sending node's name on a forwarded
	// request. Its presence is the ownership claim: the receiver solves
	// locally and never re-forwards, which is what makes forwarding loop-free
	// under peer-list skew.
	HeaderForwardedFrom = "X-Rfic-Forwarded-From"
	// HeaderContentKey carries the content address the sender computed, so
	// the receiver can cross-check ownership and the backoff jitter can be a
	// pure function of the request.
	HeaderContentKey = "X-Rfic-Content-Key"
)

// Config assembles a node's view of the cluster.
type Config struct {
	// Self is this node's peer name; it must appear in Peers.
	Self string
	// Peers is the full static membership, this node included.
	Peers []Peer
	// AttemptTimeout bounds each forward attempt (0 = 30s). It should cover
	// the owner's expected solve time, not just its network RTT: a sync solve
	// holds the response open.
	AttemptTimeout time.Duration
	// MaxAttempts bounds attempts per forward operation (0 = 3).
	MaxAttempts int
	// BackoffBase is the first retry's backoff midpoint (0 = 50ms).
	BackoffBase time.Duration
	// BackoffMax caps any single backoff, including owner Retry-After hints
	// (0 = 2s).
	BackoffMax time.Duration
	// RetryBudget caps outstanding retries: every fresh forward earns 1/10 of
	// a retry token (up to the cap), every retry spends one token (0 = 10
	// tokens). Storms borrow against real traffic instead of multiplying it.
	RetryBudget int
	// AuditEvery samples one of every AuditEvery proxied results for the
	// cross-replica audit, selected by content key (0 = 8; negative disables
	// the audit).
	AuditEvery int
}

func (c Config) attemptTimeout() time.Duration {
	if c.AttemptTimeout > 0 {
		return c.AttemptTimeout
	}
	return 30 * time.Second
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 3
}

func (c Config) backoffBase() time.Duration {
	if c.BackoffBase > 0 {
		return c.BackoffBase
	}
	return 50 * time.Millisecond
}

func (c Config) backoffMax() time.Duration {
	if c.BackoffMax > 0 {
		return c.BackoffMax
	}
	return 2 * time.Second
}

func (c Config) retryBudget() int {
	if c.RetryBudget > 0 {
		return c.RetryBudget
	}
	return 10
}

func (c Config) auditEvery() int {
	if c.AuditEvery > 0 {
		return c.AuditEvery
	}
	if c.AuditEvery < 0 {
		return 0
	}
	return 8
}

// Stats are the node's cluster counters, surfaced on /healthz. All atomic;
// the chaos battery reconciles them exactly against fired-fault counts.
type Stats struct {
	// Forwarded counts solves successfully answered by their owner node.
	Forwarded atomic.Int64
	// Retried counts peer attempts beyond the first of their operation.
	Retried atomic.Int64
	// AttemptFailures counts every failed peer attempt (each injected
	// cluster fault is exactly one). AttemptFailures == Retried + Degraded
	// when the only failures are injected ones.
	AttemptFailures atomic.Int64
	// Degraded counts forwards that fell back to a local solve.
	Degraded atomic.Int64
	// BudgetExhausted counts retries denied by the retry budget.
	BudgetExhausted atomic.Int64
	// Audited counts proxied results re-solved locally for the
	// cross-replica audit; AuditMismatch counts byte differences found.
	// Any nonzero AuditMismatch is an alarm: the determinism contract is
	// broken somewhere in the fleet.
	Audited       atomic.Int64
	AuditMismatch atomic.Int64

	// retryTokensTenths is the retry budget in tenths of a token.
	retryTokensTenths atomic.Int64
}

// takeRetryToken spends one retry token (10 tenths) if available.
func (s *Stats) takeRetryToken() bool {
	for {
		cur := s.retryTokensTenths.Load()
		if cur < 10 {
			return false
		}
		if s.retryTokensTenths.CompareAndSwap(cur, cur-10) {
			return true
		}
	}
}

// earnRetryTenth credits 1/10 of a retry token for a fresh forward, capped at
// the budget.
func (s *Stats) earnRetryTenth(budget int) {
	for {
		cur := s.retryTokensTenths.Load()
		if cur >= int64(budget)*10 {
			return
		}
		if s.retryTokensTenths.CompareAndSwap(cur, cur+1) {
			return
		}
	}
}

// StatsSnapshot is the JSON form of Stats.
type StatsSnapshot struct {
	Self            string   `json:"self"`
	Peers           []string `json:"peers"`
	Forwarded       int64    `json:"forwarded"`
	Retried         int64    `json:"retried"`
	AttemptFailures int64    `json:"attempt_failures"`
	Degraded        int64    `json:"degraded"`
	BudgetExhausted int64    `json:"budget_exhausted"`
	Audited         int64    `json:"audited"`
	AuditMismatch   int64    `json:"audit_mismatch"`
}

// Cluster is one node's membership, routing and peer-forwarding state. A nil
// *Cluster is valid and means "single node": Owner never reports remote.
type Cluster struct {
	cfg        Config
	ring       *Ring
	httpClient *http.Client
	stats      Stats
}

// New assembles a node's cluster view. The ring is built once — membership
// is static; changing it means restarting with a new peer list, which
// rehashes deterministically on every node.
func New(cfg Config) *Cluster {
	c := &Cluster{
		cfg:  cfg,
		ring: NewRing(cfg.Peers),
		// No overall client timeout: per-attempt contexts bound each try,
		// and a client-level timeout would race them.
		httpClient: &http.Client{Transport: http.DefaultTransport},
	}
	c.stats.retryTokensTenths.Store(int64(cfg.retryBudget()) * 10)
	return c
}

// Owner resolves the owner of a content key and whether it is a remote peer.
func (c *Cluster) Owner(key string) (Peer, bool) {
	if c == nil {
		return Peer{}, false
	}
	p, ok := c.ring.Owner(key)
	if !ok {
		return Peer{}, false
	}
	return p, p.Name != c.cfg.Self
}

// ShouldAudit reports whether a proxied result under this key is in the
// deterministic audit sample: a pure function of (key, AuditEvery), so every
// replay audits the identical set and the chaos battery can predict the
// audited count exactly.
func (c *Cluster) ShouldAudit(key string) bool {
	if c == nil {
		return false
	}
	return AuditSampled(key, c.cfg.auditEvery())
}

// AuditSampled is the pure audit-sampling predicate shared with harnesses.
func AuditSampled(key string, every int) bool {
	if every <= 0 {
		return false
	}
	return ringHash("audit\x00"+key)%uint64(every) == 0
}

// CountForwarded, CountDegraded and CountAudit record outcomes Forward
// cannot see.
func (c *Cluster) CountForwarded() { c.stats.Forwarded.Add(1) }
func (c *Cluster) CountDegraded()  { c.stats.Degraded.Add(1) }
func (c *Cluster) CountAudit(match bool) {
	c.stats.Audited.Add(1)
	if !match {
		c.stats.AuditMismatch.Add(1)
	}
}

// Snapshot returns the counters for /healthz.
func (c *Cluster) Snapshot() *StatsSnapshot {
	if c == nil {
		return nil
	}
	peers := c.ring.Peers()
	names := make([]string, len(peers))
	for i, p := range peers {
		names[i] = p.Name
	}
	return &StatsSnapshot{
		Self:            c.cfg.Self,
		Peers:           names,
		Forwarded:       c.stats.Forwarded.Load(),
		Retried:         c.stats.Retried.Load(),
		AttemptFailures: c.stats.AttemptFailures.Load(),
		Degraded:        c.stats.Degraded.Load(),
		BudgetExhausted: c.stats.BudgetExhausted.Load(),
		Audited:         c.stats.Audited.Load(),
		AuditMismatch:   c.stats.AuditMismatch.Load(),
	}
}

// RetryAfter formats a Retry-After value in whole seconds, rounding up so a
// sub-second hint never renders as "0" (which clients read as "immediately").
func RetryAfter(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}
