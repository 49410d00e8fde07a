// Package benchharness measures warm-started against cold-started LP solves
// at the pivot level: it runs the progressive layout flow (or just its
// phase-1 adjustment) over warm/cold LP modes × worker counts, collects the
// flow-wide effort counters each run reports, and checks the determinism
// contract — every cell must produce the byte-identical layout. rficbench
// -lp-compare drives it to regenerate the warm-start speedup table, and CI
// runs it as the pivot-regression guard: a warm run spending more pivots
// than its cold baseline fails the comparison.
package benchharness

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
)

// Config selects what to compare.
type Config struct {
	// Circuit is the circuit every cell solves.
	Circuit *netlist.Circuit
	// Options is the base flow configuration; the harness overrides ColdLP
	// and Workers per cell. The byte-equality check across the cells
	// assumes no solve hits its time limit — a binding limit cuts the
	// search at a wall-clock-dependent point, the one legitimate source of
	// nondeterminism — so give the circuit limits it comfortably solves
	// under, or restrict the comparison with Phase1Only.
	Options pilp.Options
	// Workers are the flow worker counts to compare. Nil means {1, 4}.
	Workers []int
	// Phase1Only restricts each cell to pilp.AdjustPhase1 — the one large
	// branch-and-bound solve of the flow — instead of the full three-phase
	// flow. The comparison runs 2·|Workers| solves, so this is what keeps
	// the large synthetic circuit affordable.
	Phase1Only bool
}

func (c Config) workers() []int {
	if len(c.Workers) > 0 {
		return c.Workers
	}
	return []int{1, 4}
}

// Run is the outcome of one cell of the comparison.
type Run struct {
	Cold    bool
	Workers int
	// LP and Nodes are the flow's deterministic effort counters; Runtime is
	// wall-clock and therefore informational only.
	LP      pilp.LPStats
	Nodes   int
	Runtime time.Duration
	// Layout is the formatted layout text, the byte-equality witness.
	Layout string
}

func (r Run) mode() string {
	if r.Cold {
		return "cold"
	}
	return "warm"
}

// Label names the cell as mode and worker count, e.g. "warm-w4".
func (r Run) Label() string {
	return fmt.Sprintf("%s-w%d", r.mode(), r.Workers)
}

// NsPerPivot is the cell's wall-clock nanoseconds per simplex pivot,
// informational like Runtime. Zero when no pivots ran.
func (r Run) NsPerPivot() float64 {
	if r.LP.Pivots == 0 {
		return 0
	}
	return float64(r.Runtime.Nanoseconds()) / float64(r.LP.Pivots)
}

// Report is the full comparison outcome.
type Report struct {
	Circuit string
	Runs    []Run
}

// Compare runs the matrix sequentially (each cell owns its configured worker
// count) and returns every cell's counters. Cells run in a fixed order —
// cold before warm, then ascending workers — so the JSONL records downstream
// tools fold stay stably ordered run over run.
func Compare(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.Circuit == nil {
		return nil, fmt.Errorf("benchharness: no circuit")
	}
	rep := &Report{Circuit: cfg.Circuit.Name}
	for _, cold := range []bool{true, false} {
		for _, workers := range cfg.workers() {
			opts := cfg.Options
			opts.ColdLP = cold
			opts.Workers = workers
			run := Run{Cold: cold, Workers: workers}
			if cfg.Phase1Only {
				res, err := pilp.AdjustPhase1(ctx, cfg.Circuit, opts)
				if err != nil {
					return nil, fmt.Errorf("benchharness: %s: %w", run.Label(), err)
				}
				run.LP, run.Nodes, run.Runtime = res.LP, res.Nodes, res.Runtime
				run.Layout = layout.Format(res.Layout)
			} else {
				res, err := pilp.GenerateCtx(ctx, cfg.Circuit, opts)
				if err != nil {
					return nil, fmt.Errorf("benchharness: %s: %w", run.Label(), err)
				}
				run.LP, run.Nodes, run.Runtime = res.LP, res.Nodes, res.Runtime
				run.Layout = layout.Format(res.Layout)
			}
			rep.Runs = append(rep.Runs, run)
		}
	}
	return rep, nil
}

// Mismatches returns one message per run whose layout differs from the first
// run's — empty when the determinism contract held across the whole matrix.
func (r *Report) Mismatches() []string {
	if len(r.Runs) == 0 {
		return nil
	}
	ref := r.Runs[0]
	var out []string
	for _, run := range r.Runs[1:] {
		if run.Layout != ref.Layout {
			out = append(out, fmt.Sprintf("%s differs from %s", run.Label(), ref.Label()))
		}
	}
	return out
}

// PivotReduction returns cold-pivots / warm-pivots, summed across worker
// counts — the warm-start speedup the comparison exists to measure. Zero
// when no warm pivots ran.
func (r *Report) PivotReduction() float64 {
	var warm, cold int
	for _, run := range r.Runs {
		if run.Cold {
			cold += run.LP.Pivots
		} else {
			warm += run.LP.Pivots
		}
	}
	if warm == 0 {
		return 0
	}
	return float64(cold) / float64(warm)
}

// Regressions returns one message per worker count whose warm run spent
// more pivots than its cold counterpart — the condition the CI guard fails
// on. Warm starts may at worst tie cold (every warm LP falls back to the
// cold path); spending extra pivots means the dual simplex is burning work
// without converging faster.
func (r *Report) Regressions() []string {
	cold := map[int]int{} // workers → cold pivots
	for _, run := range r.Runs {
		if run.Cold {
			cold[run.Workers] = run.LP.Pivots
		}
	}
	var out []string
	for _, run := range r.Runs {
		if run.Cold {
			continue
		}
		if c, ok := cold[run.Workers]; ok && run.LP.Pivots > c {
			out = append(out, fmt.Sprintf("%s spent %d pivots, cold baseline %d", run.Label(), run.LP.Pivots, c))
		}
	}
	sort.Strings(out)
	return out
}

// Table renders the comparison as an aligned text table, one row per run.
func (r *Report) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "lp-compare: %s\n", r.Circuit)
	fmt.Fprintf(&b, "%-5s %-7s %9s %7s %7s %9s %7s %7s %8s %7s %10s %9s\n",
		"mode", "workers", "pivots", "refacts", "peaketa", "warmhits", "misses", "cold", "hitrate", "nodes", "runtime", "ns/pivot")
	for _, run := range r.Runs {
		fmt.Fprintf(&b, "%-5s %-7d %9d %7d %7d %9d %7d %7d %7.1f%% %7d %10s %9.0f\n",
			run.mode(), run.Workers,
			run.LP.Pivots, run.LP.Refactorizations, run.LP.PeakEta,
			run.LP.WarmHits, run.LP.WarmMisses, run.LP.ColdSolves,
			100*run.LP.WarmHitRate(), run.Nodes, run.Runtime.Round(time.Millisecond),
			run.NsPerPivot())
	}
	if red := r.PivotReduction(); red > 0 {
		fmt.Fprintf(&b, "lp-compare: warm-start pivot reduction %.2fx\n", red)
	}
	return b.String()
}
