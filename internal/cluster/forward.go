package cluster

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"rficlayout/internal/faultinject"
)

// forwardError wraps the last failure of a forward operation with how it was
// classified; callers only need the message (every forward failure degrades
// to a local solve), the classification drives the retry loop.
type forwardError struct {
	err       error
	retryable bool
	// retryAfter is the owner's Retry-After hint on a 503, zero otherwise.
	retryAfter time.Duration
}

func (e *forwardError) Error() string { return e.err.Error() }
func (e *forwardError) Unwrap() error { return e.err }

// Forward sends one solve to the owner node and returns the response body of
// the first successful attempt. It makes at most MaxAttempts attempts, each
// under its own timeout, separated by deterministic jittered exponential
// backoff; the process-wide retry budget caps how many retries may be
// outstanding relative to fresh forwards, so a fleet-wide brownout cannot
// amplify itself through retry storms. The fresh operation earns its sliver
// of that budget up front, and every failed attempt is counted. On every
// failure path the returned error is non-nil and the caller is expected to
// degrade to a local solve: a forward never fails a request that the local
// node could still serve. The caller counts Forwarded/Degraded, since only
// it knows whether the fallback succeeded.
func (c *Cluster) Forward(ctx context.Context, owner Peer, key string, body []byte, query url.Values) ([]byte, error) {
	c.stats.earnRetryTenth(c.cfg.retryBudget())
	target := owner.URL + "/v1/solve"
	if len(query) > 0 {
		target += "?" + query.Encode()
	}
	var last *forwardError
	for a := 0; a < c.cfg.maxAttempts(); a++ {
		if a > 0 {
			// Retry gate: budget first (a denied retry fails the operation
			// over to the local fallback), then the deterministic backoff.
			if !c.stats.takeRetryToken() {
				c.stats.BudgetExhausted.Add(1)
				return nil, fmt.Errorf("retry budget exhausted after %v", last.err)
			}
			c.stats.Retried.Add(1)
			delay := backoffDelay(c.cfg, key, a)
			if last.retryAfter > delay {
				delay = last.retryAfter
			}
			if delay > c.cfg.backoffMax() {
				delay = c.cfg.backoffMax()
			}
			t := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		data, fe := c.attempt(ctx, target, key, body)
		if fe == nil {
			return data, nil
		}
		c.stats.AttemptFailures.Add(1)
		last = fe
		if !fe.retryable {
			return nil, fe.err
		}
		if err := ctx.Err(); err != nil {
			// The job was cancelled (deadline, last waiter left): surface the
			// cancellation, not the attempt failure it caused.
			return nil, err
		}
	}
	return nil, fmt.Errorf("all %d attempts failed: %w", c.cfg.maxAttempts(), last.err)
}

// attempt issues one forward attempt against the owner and classifies the
// outcome. The request carries this node's name (the ownership claim) and
// the content key. The three cluster fault points bracket the real I/O so a
// chaos schedule can fail the dial, the exchange, or the body read without a
// real network: each fired fault is exactly one failed attempt, which is what
// lets the chaos battery reconcile retried+degraded against fired-fault
// counts.
func (c *Cluster) attempt(ctx context.Context, target, key string, body []byte) ([]byte, *forwardError) {
	if err := faultinject.ErrorAt(faultinject.PointClusterDial); err != nil {
		return nil, &forwardError{err: err, retryable: true}
	}
	actx, cancel := context.WithTimeout(ctx, c.cfg.attemptTimeout())
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return nil, &forwardError{err: err}
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set(HeaderForwardedFrom, c.cfg.Self)
	req.Header.Set(HeaderContentKey, key)
	resp, err := c.httpClient.Do(req)
	if err != nil {
		return nil, &forwardError{err: err, retryable: true}
	}
	defer resp.Body.Close()
	if faultinject.Fired(faultinject.PointClusterForward) {
		return nil, &forwardError{err: fmt.Errorf("faultinject: injected error at %s", faultinject.PointClusterForward), retryable: true}
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		fe := &forwardError{
			err:       fmt.Errorf("owner answered %d: %s", resp.StatusCode, bytes.TrimSpace(msg)),
			retryable: resp.StatusCode >= 500,
		}
		// A 503 carries the owner's back-off hint; honoring it is what keeps a
		// fleet of retrying peers from hammering a node that just shed load.
		if resp.StatusCode == http.StatusServiceUnavailable {
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
				fe.retryAfter = time.Duration(secs) * time.Second
			}
		}
		return nil, fe
	}
	if err := faultinject.ErrorAt(faultinject.PointClusterBody); err != nil {
		return nil, &forwardError{err: err, retryable: true}
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &forwardError{err: err, retryable: true}
	}
	return data, nil
}

// backoffDelay is the deterministic jittered exponential backoff before
// retry attempt a (a >= 1): base·2^(a-1), jittered by ±50% where the jitter
// fraction is a splitmix64 draw over (key, attempt). Determinism here is not
// a luxury — it is what makes the chaos battery's retry timing replayable —
// and the per-key jitter still de-synchronizes a thundering herd, because
// different circuits back off on different schedules.
func backoffDelay(cfg Config, key string, attempt int) time.Duration {
	base := cfg.backoffBase()
	d := base << uint(attempt-1)
	if d > cfg.backoffMax() {
		d = cfg.backoffMax()
	}
	x := ringHash(key) ^ (uint64(attempt) * 0x9e3779b97f4a7c15)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	// frac in [0.5, 1.5): full-jitter around the exponential midpoint.
	frac := 0.5 + float64(x>>11)/(1<<53)
	return time.Duration(float64(d) * frac)
}
