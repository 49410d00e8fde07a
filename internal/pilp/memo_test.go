package pilp

import (
	"context"
	"sync"
	"testing"
	"time"

	"rficlayout/internal/ilpmodel"
	"rficlayout/internal/layout"
	"rficlayout/internal/milp"
	"rficlayout/internal/netlist"
)

// constructedPhase1Model builds the global-adjustment model of c against its
// constructed layout, as globalAdjust does. It is a pure LP, so every
// uncancelled solve of it returns a layout.
func constructedPhase1Model(t *testing.T, c *netlist.Circuit, opts Options) *ilpmodel.Model {
	t.Helper()
	c = netlist.Normalized(c)
	constructed, err := Construct(c)
	if err != nil {
		t.Fatal(err)
	}
	m, err := phase1Model(c, constructed, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// format renders a possibly absent layout for comparison.
func format(l *layout.Layout) string {
	if l == nil {
		return "<nil>"
	}
	return layout.Format(l)
}

// TestSolveMemoSkipsCancelled solves one model first under an already
// cancelled context, then under a live one. The cancelled Result must not be
// reused: the second call has to search, and its layout must equal a solve
// outside the flow. A third call is then answered from the memo.
func TestSolveMemoSkipsCancelled(t *testing.T) {
	opts := goldenOptions()
	m := constructedPhase1Model(t, testdataCircuit(t, "twostage.rfic"), opts)
	const maxNodes = 25
	lay, res, err := m.SolveAndExtractCtx(context.Background(), milp.SolveOptions{MaxNodes: maxNodes})
	if err != nil || lay == nil {
		t.Fatalf("fresh solve: layout %v, err %v", lay != nil, err)
	}
	want := format(lay)

	spent := new(tally)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, r, err := opts.solve(cancelled, m, time.Minute, maxNodes, spent); err != nil || r == nil || !r.Cancelled {
		t.Fatalf("solve under a cancelled context: result %+v, err %v; want a cancelled result", r, err)
	}
	lay, r, err := opts.solve(context.Background(), m, time.Minute, maxNodes, spent)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cancelled || r.Nodes == 0 {
		t.Errorf("second solve reused the cancelled one: cancelled %v, %d nodes", r.Cancelled, r.Nodes)
	}
	if got := format(lay); got != want {
		t.Errorf("second solve's layout differs from a fresh solve's")
	}
	if spent.effort.Reused != 0 || spent.effort.Nodes != res.Nodes {
		t.Errorf("after the cancelled and the live solve: effort %+v, want %d nodes and nothing reused", spent.effort, res.Nodes)
	}

	lay, _, err = opts.solve(context.Background(), constructedPhase1Model(t, testdataCircuit(t, "twostage.rfic"), opts), time.Minute, maxNodes, spent)
	if err != nil {
		t.Fatal(err)
	}
	if got := format(lay); got != want {
		t.Errorf("memoised solve's layout differs from a fresh solve's")
	}
	if spent.effort.Reused != 1 || spent.effort.Nodes != res.Nodes {
		t.Errorf("after a repeat: effort %+v, want %d nodes and one solve reused", spent.effort, res.Nodes)
	}
	// A different node budget is a different search.
	if _, _, err := opts.solve(context.Background(), m, time.Minute, maxNodes+1, spent); err != nil {
		t.Fatal(err)
	}
	if spent.effort.Reused != 1 || spent.effort.Nodes != 2*res.Nodes {
		t.Errorf("after another node budget: effort %+v, want %d nodes and one solve reused", spent.effort, 2*res.Nodes)
	}
}

// TestSolveMemoSingleFlight starts the same per-strip solve on many
// goroutines at once, each with its own build of the model: exactly one
// searches, every other waits for it and reuses its Result, whatever the
// interleaving. The search runs its whole node budget without an incumbent,
// long enough for the callers to overlap. Run it under -race.
func TestSolveMemoSingleFlight(t *testing.T) {
	const callers, maxNodes = 8, 25
	opts := goldenOptions()
	c := netlist.Normalized(testdataCircuit(t, "twostage.rfic"))
	constructed, err := Construct(c)
	if err != nil {
		t.Fatal(err)
	}
	strip := c.Microstrips[0].Name
	models := make([]*ilpmodel.Model, callers)
	for i := range models {
		if models[i], err = stripModel(c, constructed, []string{strip}, 4, nil, opts); err != nil {
			t.Fatal(err)
		}
	}
	spent := new(tally)
	layouts := make([]string, callers)
	var wg sync.WaitGroup
	for i := range models {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lay, _, err := opts.solve(context.Background(), models[i], time.Minute, maxNodes, spent)
			if err != nil {
				t.Error(err)
			}
			layouts[i] = format(lay)
		}(i)
	}
	wg.Wait()

	var once tally
	start := time.Now()
	want, r, err := opts.solve(context.Background(), models[0], time.Minute, maxNodes, &once)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("one solve: %v, %d nodes, status %v", time.Since(start), r.Nodes, r.Status)
	for i, got := range layouts {
		if got != format(want) {
			t.Errorf("caller %d got a different layout", i)
		}
	}
	if spent.effort.Reused != callers-1 || spent.effort.Nodes != once.effort.Nodes || spent.effort.LP != once.effort.LP {
		t.Errorf("%d concurrent callers spent %+v, want one solve's %+v and %d reused",
			callers, spent.effort, once.effort, callers-1)
	}
}

// TestFlowMemoEffortAcrossWorkers runs a node-budgeted flow whose phase 2
// rebuilds models it has already solved, at 1 and 4 workers. The memo must
// answer some solves, and the whole Effort, Reused included, must not
// depend on the worker count.
func TestFlowMemoEffortAcrossWorkers(t *testing.T) {
	c := testdataCircuit(t, "twostage.rfic")
	var efforts []Effort
	for _, workers := range []int{1, 4} {
		opts := goldenOptions()
		opts.Workers = workers
		res, err := GenerateCtx(context.Background(), c, opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		efforts = append(efforts, res.Effort)
	}
	if efforts[0].Reused == 0 {
		t.Errorf("no solve answered from the memo: %+v", efforts[0])
	}
	if efforts[0] != efforts[1] {
		t.Errorf("effort differs across workers: w1 %+v, w4 %+v", efforts[0], efforts[1])
	}
	t.Logf("effort %+v", efforts[0])
}
