package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"rficlayout/internal/cache"
	"rficlayout/internal/engine"
	"rficlayout/internal/layout"
	"rficlayout/internal/pilp"
)

// wireLayout is a fixed layout of tinyNetlist (its constructed placement),
// so the pinned responses do not move when the solver does.
const wireLayout = "layout tiny\nplace M1 128 100 R0\nplace PIN 0 100 R0\nplace POUT 400 100 R0\nroute TL1 0 100 108 100\nroute TL2 148 100 400 100\n"

// wireLP is the simplex effort the stub solver reports. PeakEta is set to
// show that it stays off the wire.
var wireLP = pilp.LPStats{Pivots: 812, Refactorizations: 41, WarmHits: 120, WarmMisses: 8, ColdSolves: 12, PeakEta: 37}

// jobID matches the job identifier, which embeds a prefix of the cache key.
var jobID = regexp.MustCompile(`"id":"j[0-9]{6}-[0-9a-f]{12}"`)

// wireSolver answers every job with wireLayout and fixed effort figures.
// With AcceptPartial it first runs the real engine, cancelled right after
// construction, so the result carries the engine's own partial marks; the
// stub then fixes the gap figures that a real partial run leaves at zero.
func wireSolver(ctx context.Context, job engine.Job, logf func(string, ...interface{})) engine.Result {
	l, err := layout.ParseLayoutString(wireLayout, job.Circuit)
	if err != nil {
		return engine.Result{ID: job.ID, Err: err}
	}
	res := engine.Result{ID: job.ID, Name: job.Circuit.Name, Result: &pilp.Result{}}
	if job.Options.AcceptPartial {
		jctx, cancel := context.WithCancel(ctx)
		defer cancel()
		job.Options.Logf = func(format string, args ...interface{}) {
			if strings.Contains(format, "constructed initial layout") {
				cancel()
			}
		}
		res = engine.Run(jctx, []engine.Job{job}, engine.Options{Parallel: 1})[0]
		if res.Err != nil {
			return res
		}
		res.Result.MaxGap = 0.0625
		res.Result.InterruptedSolves = 3
	}
	res.Runtime = 1500 * time.Millisecond
	res.Result.Layout = l
	res.Nodes = 2332
	res.LP = wireLP
	return res
}

func postRaw(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(tinyNetlist))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	return jobID.ReplaceAllString(string(body), `"id":"<job>"`)
}

// TestSolveResponseWireBytes pins three /v1/solve responses byte for byte
// (job id masked): a partial solve, which is never cached, a finished solve
// and the cache hit that follows it through a Dir tier. Clients decode these
// documents, so key names, key order and the omitted fields are part of the
// API.
func TestSolveResponseWireBytes(t *testing.T) {
	cfg := fastConfig()
	dir, err := cache.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Cache = dir
	s := newWithSolver(cfg, wireSolver)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })

	const layoutJSON = `"layout":"layout tiny\nplace M1 128 100 R0\nplace PIN 0 100 R0\nplace POUT 400 100 R0\nroute TL1 0 100 108 100\nroute TL2 148 100 400 100\n"`
	const quality = `"wirelength_um":360,"total_bends":0,"max_bends":0,"violations":2,"max_length_error_um":112,`
	const lp = `"lp":{"pivots":812,"refactorizations":41,"warm_hits":120,"warm_misses":8,"cold_solves":12,"warm_hit_rate":0.9375}`
	for _, tc := range []struct {
		name, query, want string
	}{
		{"partial", "?accept_partial=1", `{"id":"<job>","circuit":"tiny","status":"done","partial":true,` + layoutJSON +
			`,"stats":{"runtime_ns":1500000000,"runtime":"1.5s","nodes":2332,` + quality + lp +
			`,"partial_phase":"construct","max_gap":0.0625,"interrupted_solves":3}}` + "\n"},
		{"finished", "", `{"id":"<job>","circuit":"tiny","status":"done",` + layoutJSON +
			`,"stats":{"runtime_ns":1500000000,"runtime":"1.5s","nodes":2332,` + quality + lp + `}}` + "\n"},
		{"cache hit", "", `{"id":"cached-tiny","circuit":"tiny","status":"done","cache_hit":true,` + layoutJSON +
			`,"stats":{"runtime_ns":1500000000,"runtime":"1.5s","nodes":2332,` + quality + lp + `}}` + "\n"},
	} {
		if got := postRaw(t, ts.URL+"/v1/solve"+tc.query); got != tc.want {
			t.Errorf("%s response bytes drifted:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}
