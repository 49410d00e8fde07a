package pilp

import (
	"math"
	"sync"
	"testing"

	"rficlayout/internal/milp"
)

// milpResult builds a synthetic MILP result. An objective of NaN means "no
// incumbent", whose gap is +Inf.
func milpResult(nodes int, objective, bound float64, cancelled bool, lp milp.LPStats) *milp.Result {
	r := &milp.Result{Nodes: nodes, Objective: objective, Bound: bound, Cancelled: cancelled, LP: lp}
	if !math.IsNaN(objective) {
		r.X = []float64{0}
	}
	return r
}

// tallySolves is a mix of every case the fold distinguishes: no incumbent
// (+Inf gap), proven optimal (zero gap), positive gaps of different sizes,
// cancelled solves and differing PeakEta. The largest gap, (10-5)/10, sits in
// the middle so neither the first nor the last value wins by position.
func tallySolves() []*milp.Result {
	return []*milp.Result{
		milpResult(3, math.NaN(), 0, true, milp.LPStats{Pivots: 5, ColdSolves: 1, PeakEta: 2}),
		milpResult(7, 10, 10, false, milp.LPStats{Pivots: 40, Refactorizations: 3, WarmHits: 4, ColdSolves: 1, PeakEta: 9}),
		milpResult(11, 8, 6, true, milp.LPStats{Pivots: 60, Refactorizations: 5, WarmHits: 6, WarmMisses: 2, ColdSolves: 1, PeakEta: 4}),
		milpResult(2, 10, 5, false, milp.LPStats{Pivots: 12, Refactorizations: 1, WarmHits: 1, ColdSolves: 1, PeakEta: 17}),
		milpResult(5, 10, 9, true, milp.LPStats{Pivots: 30, Refactorizations: 2, WarmMisses: 1, ColdSolves: 1, PeakEta: 6}),
		nil,
	}
}

func TestTallyFoldsSolves(t *testing.T) {
	var spent tally
	for _, r := range tallySolves() {
		spent.add(r)
	}
	var res Result
	spent.seal(&res)
	want := Effort{Nodes: 28, LP: LPStats{Pivots: 147, Refactorizations: 11, WarmHits: 11, WarmMisses: 3, ColdSolves: 5, PeakEta: 17}}
	if res.Effort != want {
		t.Errorf("effort = %+v, want %+v", res.Effort, want)
	}
	if res.MaxGap != 0.5 {
		t.Errorf("MaxGap = %v, want the largest finite gap 0.5", res.MaxGap)
	}
	if res.InterruptedSolves != 3 {
		t.Errorf("InterruptedSolves = %d, want every cancelled solve (3)", res.InterruptedSolves)
	}
}

func TestTallySkipsInfiniteAndZeroGaps(t *testing.T) {
	var spent tally
	spent.add(milpResult(1, math.NaN(), 0, false, milp.LPStats{}))
	spent.add(milpResult(1, 4, 4, false, milp.LPStats{}))
	var res Result
	spent.seal(&res)
	if res.MaxGap != 0 {
		t.Errorf("MaxGap = %v after only an incumbent-free and an optimal solve, want 0", res.MaxGap)
	}
}

// TestTallyConcurrentMatchesSequential folds the same solves from many
// goroutines (run it under -race) and requires the totals of a sequential
// fold: concurrent strip workers share one tally.
func TestTallyConcurrentMatchesSequential(t *testing.T) {
	const workers, rounds = 8, 50
	var seq tally
	for i := 0; i < workers*rounds; i++ {
		for _, r := range tallySolves() {
			seq.add(r)
		}
	}
	var par tally
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				for _, r := range tallySolves() {
					par.add(r)
				}
			}
		}()
	}
	wg.Wait()
	var want, got Result
	seq.seal(&want)
	par.seal(&got)
	if got.Effort != want.Effort || got.MaxGap != want.MaxGap || got.InterruptedSolves != want.InterruptedSolves {
		t.Errorf("concurrent fold %+v/%v/%d, sequential %+v/%v/%d",
			got.Effort, got.MaxGap, got.InterruptedSolves, want.Effort, want.MaxGap, want.InterruptedSolves)
	}
}
