package audit

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"path/filepath"
	"testing"

	"rficlayout/internal/circuits/fuzz"
	"rficlayout/internal/netlist"
)

var (
	sweepBase   = flag.Int64("sweep.base", 1, "first seed of TestSweep; seeds run contiguously from here")
	sweepCount  = flag.Int("sweep.count", 2, "number of seeds in TestSweep (54 covers the whole topology matrix once)")
	sweepBudget = flag.Int("sweep.budget", 10, "deterministic branch-and-bound node budget per per-strip solve in TestSweep (phase 1 scales with it)")
)

// sweepFailures is where TestSweep writes minimized failing circuits, as
// fuzzN.min.rfic for seed N. Git-ignored; CI uploads it as an artifact.
const sweepFailures = "testdata/fuzz-failures"

// replaySeeds is how many leading seeds TestSweep solves a second time to
// check that their records reproduce byte for byte.
const replaySeeds = 12

// sweepRecord is the JSON line TestSweep logs per seed. Every field is a
// deterministic function of (seed, budget): wall clock never appears, so two
// sweeps over the same seeds log byte-identical lines, and any divergence is
// itself a determinism failure.
type sweepRecord struct {
	Seed    int64         `json:"seed"`
	Circuit string        `json:"circuit"`
	Profile fuzz.Profile  `json:"profile"`
	Budget  int           `json:"budget"`
	Nodes   int           `json:"nodes"`
	Passed  bool          `json:"passed"`
	Checks  []CheckResult `json:"checks"`
	// Fixture is the path of the minimized failing circuit, when one was
	// written.
	Fixture string `json:"fixture,omitempty"`
	// Error reports a battery-level error (a solver failure) — distinct from
	// a check failing.
	Error string `json:"error,omitempty"`
}

// TestSweep is the seeded fuzz sweep: for each seed in
// [-sweep.base, -sweep.base + -sweep.count) it generates a circuit, runs the
// full battery under DefaultSolveOptions(-sweep.budget) and logs one JSON
// record. A failing seed fails the test and is minimized into
// testdata/fuzz-failures/. Afterwards the first replaySeeds seeds run again
// and must reproduce their records byte for byte. Extract the records from
// -v output with grep -o '{"seed".*'. CI's sweep:
//
//	go test -count=1 -timeout 0 -run '^TestSweep$' -v ./internal/audit \
//	    -args -sweep.count 54 -sweep.budget 10
func TestSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("the sweep runs the full battery on every seed")
	}
	ctx := context.Background()
	opts := Options{Solve: DefaultSolveOptions(*sweepBudget)}

	recs := make([]sweepRecord, *sweepCount)
	for i := range recs {
		seed := *sweepBase + int64(i)
		rec, c, rep := sweepSeed(ctx, seed, opts)
		p := rec.Profile
		switch {
		case rep == nil:
			t.Errorf("seed %d (%s/%s/%s): %s", seed, p.Shape, p.Aspect, p.Lengths, rec.Error)
		case !rec.Passed:
			t.Errorf("seed %d (%s/%s/%s): failing checks %v", seed, p.Shape, p.Aspect, p.Lengths, failingChecks(rep))
			rec.Fixture = minimizeFailure(ctx, t, c, rep, opts, seed)
		}
		t.Log(recordLine(t, rec))
		recs[i] = rec
	}

	for i := 0; i < min(len(recs), replaySeeds); i++ {
		again, _, _ := sweepSeed(ctx, recs[i].Seed, opts)
		// Minimization is not replayed; its fixture path is a function of
		// the seed.
		again.Fixture = recs[i].Fixture
		if got, want := recordLine(t, again), recordLine(t, recs[i]); got != want {
			t.Errorf("seed %d: replayed record differs — determinism contract broken\nfirst:  %s\nreplay: %s",
				recs[i].Seed, want, got)
		}
	}
}

// sweepSeed generates the seed's circuit and runs the battery on it. It
// returns the seed's record, the circuit and, unless the battery itself
// errored, its report.
func sweepSeed(ctx context.Context, seed int64, opts Options) (sweepRecord, *netlist.Circuit, *Report) {
	c, profile := fuzz.Generate(seed)
	rec := sweepRecord{Seed: seed, Circuit: c.Name, Profile: profile, Budget: *sweepBudget}
	rep, err := Run(ctx, c, opts)
	if err != nil {
		rec.Error = err.Error()
		return rec, c, nil
	}
	rec.Nodes = rep.Nodes
	rec.Checks = rep.Results
	rec.Passed = rep.Passed()
	return rec, c, rep
}

func recordLine(t *testing.T, rec sweepRecord) string {
	t.Helper()
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("encoding seed %d record: %v", rec.Seed, err)
	}
	return string(b)
}

// minimizeFailure shrinks a failing circuit while its failing checks keep
// failing and writes the result as a replayable .rfic fixture. Returns the
// fixture path, or "" when minimization could not produce one.
func minimizeFailure(ctx context.Context, t *testing.T, c *netlist.Circuit, rep *Report, opts Options, seed int64) string {
	t.Helper()
	mopts := opts
	mopts.Checks = failingChecks(rep)
	pred := func(ctx context.Context, cand *netlist.Circuit) (string, bool) {
		r, err := Run(ctx, cand, mopts)
		if err != nil {
			return "", false
		}
		if f := r.Failed(); len(f) > 0 {
			return f[0].Name + ": " + f[0].Detail, true
		}
		return "", false
	}
	res, err := Minimize(ctx, c, pred)
	if err != nil || res == nil {
		t.Logf("seed %d: minimization aborted: %v", seed, err)
		return ""
	}
	path := filepath.Join(sweepFailures, fmt.Sprintf("fuzz%d.min.rfic", seed))
	if err := WriteFixture(path, res.Circuit); err != nil {
		t.Logf("seed %d: writing fixture: %v", seed, err)
		return ""
	}
	t.Logf("seed %d: minimized to %d device(s), %d strip(s) in %d step(s): %s (%s)",
		seed, len(res.Circuit.Devices), len(res.Circuit.Microstrips), res.Steps, path, res.Detail)
	return path
}

func failingChecks(rep *Report) []string {
	var names []string
	for _, f := range rep.Failed() {
		names = append(names, f.Name)
	}
	return names
}
