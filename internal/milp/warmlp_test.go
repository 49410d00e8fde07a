package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

// randomKnapsack builds a random 0-1 knapsack instance.
func randomKnapsack(rng *rand.Rand) *Model {
	n := 5 + rng.Intn(8)
	values := make([]float64, n)
	weights := make([]float64, n)
	total := 0.0
	for i := range values {
		values[i] = float64(1 + rng.Intn(20))
		weights[i] = float64(1 + rng.Intn(10))
		total += weights[i]
	}
	m, _ := buildKnapsack(values, weights, math.Floor(total*(0.3+rng.Float64()*0.4)))
	return m
}

// sameResult asserts two results agree on everything deterministic.
func sameResult(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if a.Status != b.Status || a.Objective != b.Objective || a.Bound != b.Bound || a.Nodes != b.Nodes {
		t.Errorf("%s: status/obj/bound/nodes differ: %v/%v %v/%v %v/%v %d/%d",
			label, a.Status, b.Status, a.Objective, b.Objective, a.Bound, b.Bound, a.Nodes, b.Nodes)
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: X length %d != %d", label, len(a.X), len(b.X))
	}
	for j := range a.X {
		if a.X[j] != b.X[j] {
			t.Errorf("%s: X[%d] %v != %v", label, j, a.X[j], b.X[j])
		}
	}
}

// TestWarmVsColdSearchIdentical is the MILP half of the determinism
// contract: basis reuse must not change anything observable about the search
// — same incumbent, same bound, same node count, bit-identical X — while
// spending fewer simplex pivots.
func TestWarmVsColdSearchIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var warmPivots, coldPivots, hits int
	for trial := 0; trial < 20; trial++ {
		m := randomKnapsack(rng)
		cold, err := m.SolveCtx(context.Background(), SolveOptions{DisableWarmLP: true})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := m.SolveCtx(context.Background(), SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, "warm-vs-cold", cold, warm)
		if cold.LP.WarmHits != 0 || cold.LP.WarmMisses != 0 {
			t.Errorf("trial %d: cold search counted warm LPs: %+v", trial, cold.LP)
		}
		warmPivots += warm.LP.Pivots
		coldPivots += cold.LP.Pivots
		hits += warm.LP.WarmHits
	}
	if hits == 0 {
		t.Error("no warm-start hits across 20 branch-and-bound searches")
	}
	if warmPivots >= coldPivots {
		t.Errorf("warm starts saved no pivots: warm %d, cold %d", warmPivots, coldPivots)
	}
	t.Logf("pivots: cold %d, warm %d (%.2fx), warm hits %d", coldPivots, warmPivots,
		float64(coldPivots)/math.Max(1, float64(warmPivots)), hits)
}
