package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rficlayout/internal/engine"
	"rficlayout/internal/layout"
	"rficlayout/internal/pilp"
)

// FuzzSolveRequest drives arbitrary netlist bodies and accept_partial,
// timeout and async query values through handleSolve. A stub solver answers
// every admitted job with an empty layout, so the request decoding, cache
// keying, admission and response paths run without a real solve. No input
// may panic (the server's panics counter stays zero) or hang it, every
// response must carry one of the statuses the endpoint documents, and every
// 503 must carry Retry-After. Each 202's job is then polled through
// handleJob once it is done, under the same two rules. The corpus is seeded
// with the repository's example circuits and the malformed-request cases of
// TestSolveMalformedRequests.
//
//	go test -run '^$' -fuzz FuzzSolveRequest -fuzztime 10s ./internal/server
func FuzzSolveRequest(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.rfic"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no testdata/*.rfic seed circuits found")
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data), "", "", "")
	}
	f.Add(tinyNetlist, "1", "1ns", "")
	f.Add(tinyNetlist, "bogus", "-1s", "1")
	f.Add(tinyNetlist, "", "garbage", "maybe")
	f.Add("circuit x\nnonsense line here\n", "", "", "")
	f.Add("", "", "", "")
	f.Add("circuit x\narea 100 100\nstrip TL1 A.p B.q length=50\n", "", "", "true")

	stub := func(ctx context.Context, job engine.Job, logf func(string, ...interface{})) engine.Result {
		return engine.Result{ID: job.ID, Result: &pilp.Result{Layout: layout.New(job.Circuit)}}
	}
	cfg := fastConfig()
	cfg.MaxBodyBytes = 4 << 10
	s := newWithSolver(cfg, stub)
	f.Cleanup(s.Close)
	allowed := map[int]bool{
		http.StatusOK:                    true,
		http.StatusAccepted:              true,
		http.StatusBadRequest:            true,
		http.StatusRequestEntityTooLarge: true,
		http.StatusServiceUnavailable:    true,
		http.StatusGatewayTimeout:        true,
	}

	f.Fuzz(func(t *testing.T, body, acceptPartial, timeout, async string) {
		query := url.Values{"accept_partial": {acceptPartial}, "timeout": {timeout}, "async": {async}}
		req := httptest.NewRequest(http.MethodPost, "/v1/solve?"+query.Encode(), strings.NewReader(body))
		rec := httptest.NewRecorder()
		deadline := time.After(10 * time.Second)
		wait := func(done <-chan struct{}, what string) {
			select {
			case <-done:
			case <-deadline:
				t.Fatalf("%s hung", what)
			}
		}
		handled := make(chan struct{})
		go func() {
			defer close(handled)
			s.handleSolve(rec, req)
		}()
		wait(handled, "handleSolve")
		checkStatus := func(what string, rec *httptest.ResponseRecorder) {
			if !allowed[rec.Code] {
				t.Fatalf("%s: status %d not in the allowed set: %s", what, rec.Code, rec.Body.String())
			}
			if rec.Code == http.StatusServiceUnavailable && rec.Header().Get("Retry-After") == "" {
				t.Fatalf("%s: 503 without Retry-After: %s", what, rec.Body.String())
			}
		}
		checkStatus("handleSolve", rec)
		// An async job finishes in the background; wait for it so a panic
		// there is charged to this input, not a later one, then poll it.
		var sr solveResponse
		if rec.Code == http.StatusAccepted && json.Unmarshal(rec.Body.Bytes(), &sr) == nil {
			if j, ok := s.jobs.get(sr.ID); ok {
				wait(j.done, "async job "+sr.ID)
				poll := httptest.NewRecorder()
				s.handleJob(poll, httptest.NewRequest(http.MethodGet, "/v1/jobs/"+sr.ID, nil))
				checkStatus("handleJob "+sr.ID, poll)
			}
		}
		if n := s.panics.Load(); n != 0 {
			t.Fatalf("server isolated %d panics", n)
		}
	})
}
