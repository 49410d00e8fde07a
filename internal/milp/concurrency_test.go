package milp

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

// solveWithWorkers solves a fresh copy of a random knapsack with the given
// worker count.
func solveKnapsackWithWorkers(t *testing.T, values, weights []float64, capacity float64, workers int) *Result {
	t.Helper()
	m, _ := buildKnapsack(values, weights, capacity)
	res, err := m.SolveCtx(context.Background(), SolveOptions{Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestParallelSolveDeterministic checks the determinism contract: the result
// of a solve — status, objective, bound, node count and the exact solution
// vector — must be identical for every worker count.
func TestParallelSolveDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	for trial := 0; trial < 15; trial++ {
		n := 6 + rng.Intn(10)
		values := make([]float64, n)
		weights := make([]float64, n)
		total := 0.0
		for i := range values {
			values[i] = float64(1 + rng.Intn(20))
			weights[i] = float64(1 + rng.Intn(10))
			total += weights[i]
		}
		capacity := math.Floor(total * (0.3 + rng.Float64()*0.4))

		ref := solveKnapsackWithWorkers(t, values, weights, capacity, workerCounts[0])
		for _, w := range workerCounts[1:] {
			got := solveKnapsackWithWorkers(t, values, weights, capacity, w)
			if got.Status != ref.Status {
				t.Errorf("trial %d: workers=%d status %v, want %v", trial, w, got.Status, ref.Status)
			}
			if got.Objective != ref.Objective {
				t.Errorf("trial %d: workers=%d objective %g, want %g", trial, w, got.Objective, ref.Objective)
			}
			if got.Bound != ref.Bound {
				t.Errorf("trial %d: workers=%d bound %g, want %g", trial, w, got.Bound, ref.Bound)
			}
			if got.Nodes != ref.Nodes {
				t.Errorf("trial %d: workers=%d nodes %d, want %d", trial, w, got.Nodes, ref.Nodes)
			}
			if len(got.X) != len(ref.X) {
				t.Fatalf("trial %d: workers=%d len(X) %d, want %d", trial, w, len(got.X), len(ref.X))
			}
			for j := range got.X {
				if got.X[j] != ref.X[j] {
					t.Errorf("trial %d: workers=%d X[%d] = %g, want %g", trial, w, j, got.X[j], ref.X[j])
					break
				}
			}
		}
	}
}

// TestParallelSolveMatchesBruteForce re-runs the exhaustive comparison with a
// multi-worker pool so -race exercises the concurrent LP evaluation.
func TestParallelSolveMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		n := 4 + rng.Intn(9)
		values := make([]float64, n)
		weights := make([]float64, n)
		total := 0.0
		for i := range values {
			values[i] = float64(1 + rng.Intn(20))
			weights[i] = float64(1 + rng.Intn(10))
			total += weights[i]
		}
		capacity := math.Floor(total * (0.3 + rng.Float64()*0.4))
		m, _ := buildKnapsack(values, weights, capacity)
		res, err := m.SolveCtx(context.Background(), SolveOptions{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceKnapsack(values, weights, capacity)
		if res.Status != StatusOptimal || math.Abs(-res.Objective-want) > 1e-6 {
			t.Errorf("trial %d: got %g (%v), want %g", trial, -res.Objective, res.Status, want)
		}
	}
}

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
