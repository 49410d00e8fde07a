package milp

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"
)

// buildKnapsack creates a 0-1 knapsack MILP: maximize value subject to a
// weight capacity (expressed as minimization of negated value).
func buildKnapsack(values, weights []float64, capacity float64) (*Model, []Var) {
	m := NewModel()
	vars := make([]Var, len(values))
	capRow := NewExpr()
	for i := range values {
		vars[i] = m.AddBinary("item")
		m.SetObjectiveCoef(vars[i], -values[i])
		capRow.Add(vars[i], weights[i])
	}
	m.AddLE("capacity", capRow, capacity)
	return m, vars
}

// bruteForceKnapsack returns the optimal value by enumeration.
func bruteForceKnapsack(values, weights []float64, capacity float64) float64 {
	n := len(values)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		w, v := 0.0, 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				w += weights[i]
				v += values[i]
			}
		}
		if w <= capacity && v > best {
			best = v
		}
	}
	return best
}

func TestKnapsackSmall(t *testing.T) {
	values := []float64{10, 13, 7, 8, 12}
	weights := []float64{3, 4, 2, 3, 5}
	const capacity = 9
	m, _ := buildKnapsack(values, weights, capacity)
	res, err := m.SolveCtx(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	want := bruteForceKnapsack(values, weights, capacity)
	if math.Abs(-res.Objective-want) > 1e-6 {
		t.Errorf("value = %g, want %g", -res.Objective, want)
	}
	if ok, why := m.CheckFeasible(res.X, 1e-6); !ok {
		t.Errorf("incumbent infeasible: %s", why)
	}
}

func TestKnapsackRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
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
		res, err := m.SolveCtx(context.Background(), SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want := bruteForceKnapsack(values, weights, capacity)
		if res.Status != StatusOptimal || math.Abs(-res.Objective-want) > 1e-6 {
			t.Errorf("trial %d: got %g (%v), want %g", trial, -res.Objective, res.Status, want)
		}
	}
}

func TestInfeasibleMILP(t *testing.T) {
	m := NewModel()
	x := m.AddBinary("x")
	y := m.AddBinary("y")
	m.AddGE("sum", Term(x, 1).Add(y, 1), 3) // impossible for two binaries
	res, err := m.SolveCtx(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
	if res.X != nil {
		t.Error("infeasible result carries an assignment")
	}
	if !math.IsInf(res.Gap(), 1) {
		t.Error("gap of infeasible result should be +Inf")
	}
}

func TestInfeasibleByIntegrality(t *testing.T) {
	// 2x = 1 has an LP solution (x = 0.5) but no 0-1 solution.
	m := NewModel()
	x := m.AddBinary("x")
	m.AddEQ("half", Term(x, 2), 1)
	res, err := m.SolveCtx(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestUnboundedMILP(t *testing.T) {
	m := NewModel()
	x := m.AddContinuous("x", 0, Infinity)
	m.SetObjectiveCoef(x, -1)
	m.AddGE("trivial", Term(x, 1), 0)
	res, err := m.SolveCtx(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusUnbounded {
		t.Errorf("status = %v, want unbounded", res.Status)
	}
}

func TestNodeLimitReturnsIncumbentOrNoSolution(t *testing.T) {
	// A larger knapsack with a 1-node limit: the search cannot finish, but
	// the result must be well-formed either way.
	rng := rand.New(rand.NewSource(3))
	n := 18
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i] = float64(1 + rng.Intn(30))
		weights[i] = float64(1 + rng.Intn(12))
	}
	m, _ := buildKnapsack(values, weights, 40)
	res, err := m.SolveCtx(context.Background(), SolveOptions{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	switch res.Status {
	case StatusFeasible:
		if ok, why := m.CheckFeasible(res.X, 1e-6); !ok {
			t.Errorf("claimed feasible incumbent is not: %s", why)
		}
	case StatusNoSolution, StatusOptimal:
		// Acceptable: the single node may already be integral.
	default:
		t.Errorf("unexpected status %v", res.Status)
	}
	if res.Nodes > 1 {
		t.Errorf("explored %d nodes with MaxNodes=1", res.Nodes)
	}
}

func TestTimeLimitRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 24
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i] = float64(1 + rng.Intn(50))
		weights[i] = float64(1 + rng.Intn(20))
	}
	m, _ := buildKnapsack(values, weights, 100)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := m.SolveCtx(ctx, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 5*time.Second {
		t.Errorf("solve took %v despite 50ms limit", elapsed)
	}
	if res.Status == StatusInfeasible || res.Status == StatusUnbounded {
		t.Errorf("unexpected status %v", res.Status)
	}
}

func TestGapAndBoundsOnOptimal(t *testing.T) {
	values := []float64{4, 5, 6}
	weights := []float64{2, 3, 4}
	m, _ := buildKnapsack(values, weights, 6)
	res, err := m.SolveCtx(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Gap() > 1e-6 {
		t.Errorf("gap = %g, want ~0", res.Gap())
	}
	if math.Abs(res.Bound-res.Objective) > 1e-6 {
		t.Errorf("bound %g != objective %g at optimality", res.Bound, res.Objective)
	}
}

// TestBetterIncumbent pins the incumbent order: a strictly better objective
// wins, and objectives within 1e-9 tie, broken by the lexicographically
// smaller solution vector so the adopted incumbent does not depend on the
// order in which equal-quality solutions are found.
func TestBetterIncumbent(t *testing.T) {
	incumbent := []float64{1, 0, 2}
	cases := []struct {
		name string
		obj  float64
		x    []float64
		want bool
	}{
		{"strictly better", 4, []float64{9, 9, 9}, true},
		{"strictly worse", 6, []float64{0, 0, 0}, false},
		{"tie, smaller vector", 5 + 1e-10, []float64{1, 0, 1}, true},
		{"tie, larger vector", 5 - 1e-10, []float64{1, 1, 0}, false},
		{"tie, equal vector", 5, []float64{1, 0, 2}, false},
	}
	for _, tc := range cases {
		r := &Result{Objective: 5, X: incumbent}
		if got := r.betterIncumbent(tc.obj, tc.x); got != tc.want {
			t.Errorf("%s: betterIncumbent = %v, want %v", tc.name, got, tc.want)
		}
	}
	if !(&Result{}).betterIncumbent(1e9, []float64{5}) {
		t.Error("first incumbent rejected")
	}
}

func TestStatusStrings(t *testing.T) {
	for _, s := range []Status{StatusOptimal, StatusFeasible, StatusInfeasible, StatusUnbounded, StatusNoSolution, Status(42)} {
		if s.String() == "" {
			t.Error("empty status string")
		}
	}
	if !StatusOptimal.HasSolution() || !StatusFeasible.HasSolution() || StatusInfeasible.HasSolution() {
		t.Error("HasSolution classification wrong")
	}
}

func TestEqualityILPWithBinariesAndContinuous(t *testing.T) {
	// Mixed problem: choose exactly 2 of 4 sites (binaries) and split 100
	// units of flow (continuous) between the chosen sites, minimizing cost.
	// Site costs per unit: 1, 2, 3, 4 and fixed opening costs 10, 5, 1, 0.
	// Capacity per open site: 60.
	// Best: open sites 0 and 1 → fixed 15, flow 60*1 + 40*2 = 140 → 155.
	// Alternatives: open 0 and 2 → 11 + 60+120 = 191; 0,3: 10+60+160=230;
	// 1,2: 6+120+120=246 ... so 155 is optimal.
	m := NewModel()
	open := make([]Var, 4)
	flow := make([]Var, 4)
	fixedCosts := []float64{10, 5, 1, 0}
	unitCosts := []float64{1, 2, 3, 4}
	sum := NewExpr()
	count := NewExpr()
	for i := 0; i < 4; i++ {
		open[i] = m.AddBinary("open")
		flow[i] = m.AddContinuous("flow", 0, 60)
		m.SetObjectiveCoef(open[i], fixedCosts[i])
		m.SetObjectiveCoef(flow[i], unitCosts[i])
		// flow_i <= 60 * open_i
		m.AddLE("cap", Term(flow[i], 1).Add(open[i], -60), 0)
		sum.Add(flow[i], 1)
		count.Add(open[i], 1)
	}
	m.AddEQ("demand", sum, 100)
	m.AddEQ("two-sites", count, 2)
	res, err := m.SolveCtx(context.Background(), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusOptimal || math.Abs(res.Objective-155) > 1e-5 {
		t.Errorf("objective = %g (%v), want 155", res.Objective, res.Status)
	}
	if res.X[open[0]] < 0.5 || res.X[open[1]] < 0.5 {
		t.Errorf("expected sites 0 and 1 open, got %v %v %v %v",
			res.X[open[0]], res.X[open[1]], res.X[open[2]], res.X[open[3]])
	}
}
