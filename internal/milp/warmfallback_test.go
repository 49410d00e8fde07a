package milp

import (
	"context"
	"math"
	"testing"

	"rficlayout/internal/lp"
)

// TestSingularWarmBasisCountsAsMiss: a node offered a warm basis whose basic
// columns are linearly dependent must fall back to the cold path — and the
// milp accounting must book that solve as a warm miss, not a hit or a cold
// solve. This is exactly the path a branch-and-bound node takes when its
// parent's basis no longer factorizes under the child's bounds.
func TestSingularWarmBasisCountsAsMiss(t *testing.T) {
	prob := lp.NewProblem()
	x := prob.AddVariable("x", 0, lp.Infinity, -3)
	y := prob.AddVariable("y", 0, lp.Infinity, -5)
	prob.AddConstraint("c1", []lp.Entry{{Var: x, Coef: 1}, {Var: y, Coef: 1}}, lp.LE, 4)
	prob.AddConstraint("c2", []lp.Entry{{Var: x, Coef: 2}, {Var: y, Coef: 2}}, lp.LE, 9)

	// Rank-1 basis matrix [[1,1],[2,2]]: dimensionally compatible, so only
	// the refactorization's singularity check can reject it.
	singular := &lp.Basis{
		Basic:  []int32{0, 1},
		Status: []lp.BasisStatus{lp.BasisBasic, lp.BasisBasic, lp.BasisAtLower, lp.BasisAtLower},
	}
	opts := lp.Options{WarmBasis: singular}
	sol, err := lp.SolveCtx(context.Background(), prob, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != lp.StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.WarmStarted {
		t.Fatal("solve claims a warm start from a singular basis")
	}

	var stats LPStats
	stats.count(sol, opts.WarmBasis != nil)
	if stats.WarmMisses != 1 || stats.WarmHits != 0 || stats.ColdSolves != 0 {
		t.Errorf("stats = hits %d misses %d cold %d, want the rejected basis booked as one miss",
			stats.WarmHits, stats.WarmMisses, stats.ColdSolves)
	}
	if stats.Pivots != sol.Iterations || stats.Refactorizations != sol.Refactorizations {
		t.Errorf("effort counters not folded: %+v vs sol %d/%d", stats, sol.Iterations, sol.Refactorizations)
	}
	if stats.PeakEta != sol.PeakEta {
		t.Errorf("PeakEta = %d, want %d", stats.PeakEta, sol.PeakEta)
	}

	// The fallback must still find the true optimum the cold path reports.
	ref, err := lp.SolveCtx(context.Background(), prob, lp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-ref.Objective) > 1e-9 {
		t.Errorf("fallback objective %g, cold reference %g", sol.Objective, ref.Objective)
	}
}

// TestLPStatsPeakEtaMaxMerges: Add must merge PeakEta by maximum — it is a
// high-water mark of one solve's eta chain, not a summable effort counter.
func TestLPStatsPeakEtaMaxMerges(t *testing.T) {
	a := LPStats{Pivots: 10, PeakEta: 7}
	b := LPStats{Pivots: 5, PeakEta: 3}
	a.Add(b)
	if a.Pivots != 15 {
		t.Errorf("Pivots = %d, want 15 (summed)", a.Pivots)
	}
	if a.PeakEta != 7 {
		t.Errorf("PeakEta = %d, want 7 (max-merged)", a.PeakEta)
	}
	b.Add(LPStats{PeakEta: 9})
	if b.PeakEta != 9 {
		t.Errorf("PeakEta = %d, want 9 (max-merged upward)", b.PeakEta)
	}
}
