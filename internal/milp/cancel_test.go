package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

// TestSolveCtxPreCancelled checks that a context that is already cancelled
// returns promptly with StatusNoSolution and no explored nodes.
func TestSolveCtxPreCancelled(t *testing.T) {
	m, _ := buildKnapsack([]float64{10, 13, 7}, []float64{3, 4, 2}, 6)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := m.SolveCtx(ctx, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusNoSolution {
		t.Errorf("status = %v, want %v", res.Status, StatusNoSolution)
	}
	if res.Nodes != 0 {
		t.Errorf("explored %d nodes under a cancelled context", res.Nodes)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("cancelled solve took %v", elapsed)
	}
}

// TestSolveCtxDeadline checks that a context deadline stops the search and
// that the solve reports what it has.
func TestSolveCtxDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 18
	values := make([]float64, n)
	weights := make([]float64, n)
	total := 0.0
	for i := range values {
		values[i] = 1 + rng.Float64()*20
		weights[i] = 1 + rng.Float64()*10
		total += weights[i]
	}
	m, _ := buildKnapsack(values, weights, math.Floor(total*0.5))
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := m.SolveCtx(ctx, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("deadline ignored: solve took %v", elapsed)
	}
	if res.Status == StatusOptimal {
		// Fine on a fast machine — but the incumbent must then be consistent.
		if res.X == nil {
			t.Error("optimal status without a solution vector")
		}
	}
}
