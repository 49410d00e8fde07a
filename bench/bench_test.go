package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"rficlayout/internal/cluster"
	"rficlayout/internal/netlist"
)

// inputs renders every input the workloads generate from a seed, in the
// order they are issued.
func inputs(seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var out []string
	for _, it := range append(table1Items(rng), refineItems(rng)...) {
		out = append(out, it.label+"\n"+netlist.Format(it.circuit))
	}
	pool, seq := mixRequests(rng)
	for _, r := range append(append(novelRequests(rng), pool...), seq...) {
		out = append(out, r.label+" "+r.key+"\n"+string(r.body))
	}
	return out
}

func TestInputsArePureFunctionsOfTheSeed(t *testing.T) {
	a, b := inputs(1), inputs(1)
	if strings.Join(a, "\x00") != strings.Join(b, "\x00") {
		t.Fatal("seed 1 generated different inputs on two calls")
	}
	// Another seed permutes declaration and issue order only: the same
	// labelled circuits, under the same content keys.
	c := inputs(2)
	if strings.Join(a, "\x00") == strings.Join(c, "\x00") {
		t.Fatal("seeds 1 and 2 generated identical inputs")
	}
	heads := func(xs []string) []string {
		var hs []string
		for _, x := range xs {
			hs = append(hs, strings.SplitN(x, "\n", 2)[0])
		}
		sort.Strings(hs)
		return hs
	}
	if strings.Join(heads(a), "\n") != strings.Join(heads(c), "\n") {
		t.Fatal("seeds 1 and 2 generated different circuits")
	}
}

func TestMixPoolOwnership(t *testing.T) {
	pool, _ := mixRequests(rand.New(rand.NewSource(1)))
	ring := cluster.New(cluster.Config{Self: "a", Peers: []cluster.Peer{{Name: "a"}, {Name: "b"}}})
	counts := map[string]int{}
	for _, r := range pool {
		owner, _ := ring.Owner(r.key)
		if owner.Name == "b" && cluster.AuditSampled(r.key, auditEvery) {
			counts["b-audited"]++
		} else {
			counts[owner.Name]++
		}
	}
	if counts["a"] != poolSize/2 || counts["b"] != poolSize/2-1 || counts["b-audited"] != 1 {
		t.Fatalf("pool ownership %v", counts)
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{{99, 0.9, false}, {100, 0.9, true}, {999, 0.99, false}, {1000, 0.99, true}, {19, 0.5, false}, {20, 0.5, true}} {
		if _, err := percentile(samples(c.n), c.p); (err == nil) != c.ok {
			t.Errorf("percentile(%d samples, %g): err %v, want ok=%v", c.n, c.p, err, c.ok)
		}
	}
	for n, want := range map[int]string{5: "max", 50: "p80", 100: "p90", 1000: "p99"} {
		if _, got := tail(samples(n)); got != want {
			t.Errorf("tail of %d samples is %s, want %s", n, got, want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each xs.
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{4, 1}, [3]float64{0.25, 2.5, 4.75}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func TestBenchmarkJSONMatchesTheProgram(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	list := func(specs []metricSpec) string {
		var b strings.Builder
		for _, s := range specs {
			fmt.Fprintf(&b, "%s %s\n", s.name, s.unit)
		}
		return b.String()
	}
	var e2e, layers []metricSpec
	for _, m := range sp.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range sp.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit})
	}
	for _, m := range append(append([]metricSpec(nil), e2e...), layers...) {
		if !valid.MatchString(m.name) {
			t.Errorf("metric name %q", m.name)
		}
	}
	if got, want := list(e2e), list(endToEndMetrics); got != want {
		t.Errorf("BENCHMARK.json end_to_end:\n%s\nprogram:\n%s", got, want)
	}
	if got, want := list(layers), list(layerMetrics); got != want {
		t.Errorf("BENCHMARK.json per_layer:\n%s\nprogram:\n%s", got, want)
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, " ") != strings.Join(workloads, " ") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloads)
	}
	if sp.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds %d, program %d", sp.RunSeconds, runSeconds)
	}
}

// cheapSeeds are fuzz circuits that solve in milliseconds.
var cheapSeeds = []int64{5, 35, 164, 158, 191, 29, 404, 140, 323, 425}

// toySystems are each workload's system at toy size: two circuits per batch,
// six requests per serving workload.
func toySystems(t *testing.T) map[string]system {
	rng := rand.New(rand.NewSource(1))
	var reqs []request
	for _, seed := range cheapSeeds {
		reqs = append(reqs, newRequest(fmt.Sprintf("toy/%d", seed), fuzzCircuit(seed), rng))
	}
	items := func() []item {
		return []item{{"toy/a", fuzzCircuit(cheapSeeds[0])}, {"toy/b", fuzzCircuit(cheapSeeds[1])}}
	}
	warm := item{"warm", fuzzCircuit(cheapSeeds[2])}
	// The mix pool holds one circuit owned by each node, so repeats take
	// both the local and the forwarded hit path.
	ring := cluster.New(cluster.Config{Self: "a", Peers: []cluster.Peer{{Name: "a"}, {Name: "b"}}})
	byOwner := map[string]request{}
	var fresh []request
	for _, r := range reqs {
		owner, _ := ring.Owner(r.key)
		if _, ok := byOwner[owner.Name]; !ok {
			byOwner[owner.Name] = r
		} else {
			fresh = append(fresh, r)
		}
	}
	if len(byOwner) != 2 || len(fresh) < 2 {
		t.Fatalf("cheap circuits do not cover both owners: %d owners", len(byOwner))
	}
	pool := []request{byOwner["a"], byOwner["b"]}
	return map[string]system{
		"table1":      &batch{items: items(), opts: table1Options(), warm: warm},
		"refine":      &batch{items: items(), opts: refineOptions(), warm: warm},
		"serve-novel": &serving{nodeNames: []string{"a"}, warm: reqs[:1], seq: reqs[1:7], scratch: t.TempDir()},
		"serve-mix": &serving{nodeNames: []string{"a", "b"}, warm: pool, hitsOnly: true, scratch: t.TempDir(),
			seq: []request{pool[0], pool[1], fresh[0], pool[1], pool[0], fresh[1]}},
	}
}

func TestSmokeRuns(t *testing.T) {
	ctx := context.Background()
	golden := t.TempDir()
	emitted := map[string]bool{}
	for _, w := range workloads {
		cfg := config{workload: w, seed: 1, out: t.TempDir(), golden: golden, update: true}
		rec, err := run(ctx, cfg, toySystems(t)[w])
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !rec.Correct || rec.Attempted == 0 {
			t.Fatalf("%s: correct=%v attempted=%d failed=%d problems %v", w, rec.Correct, rec.Attempted, rec.Failed, rec.Problems)
		}
		for name := range rec.Metrics {
			emitted[name] = true
		}
	}
	// A traced run checks against the digests the untraced run just wrote.
	cfg := config{workload: "serve-mix", seed: 2, trace: true, out: t.TempDir(), golden: golden}
	rec, err := run(ctx, cfg, toySystems(t)["serve-mix"])
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Fatalf("traced serve-mix: problems %v", rec.Problems)
	}
	for name := range rec.Metrics {
		emitted[name] = true
	}
	if rec.Metrics["cluster.forwarded"].Value == 0 || rec.Metrics["lp.pivots"].Value == 0 {
		t.Errorf("traced serve-mix forwarded %v requests and spent %v pivots", rec.Metrics["cluster.forwarded"].Value, rec.Metrics["lp.pivots"].Value)
	}
	for _, m := range append(append([]metricSpec(nil), endToEndMetrics...), layerMetrics...) {
		if !emitted[m.name] {
			t.Errorf("no workload emitted %s", m.name)
		}
	}
}

func TestGoldenMismatchFailsTheRun(t *testing.T) {
	golden := t.TempDir()
	outs := map[string]output{"x": {layout: "one"}}
	if err := writeGolden(golden+"/w.json", outs); err != nil {
		t.Fatal(err)
	}
	want, err := readGolden(golden + "/w.json")
	if err != nil {
		t.Fatal(err)
	}
	if p := diffGolden(want, outs); len(p) != 0 {
		t.Fatalf("unchanged layout reported %v", p)
	}
	if p := diffGolden(want, map[string]output{"x": {layout: "two"}, "y": {layout: "three"}}); len(p) != 2 {
		t.Fatalf("changed and unknown layouts reported %v", p)
	}
	if p := diffGolden(want, map[string]output{}); len(p) != 1 {
		t.Fatalf("a golden label without a layout reported %v", p)
	}
}

func TestCompareFlagsRegressions(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, costs ...float64) string {
		path := filepath.Join(dir, name)
		for _, c := range costs {
			rec := record{Workload: "table1", Metrics: map[string]metric{"cpu_ms_per_op": {c, "ms"}}}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("a.json", 100, 101, 102, 103, 104)
	for _, c := range []struct {
		name string
		b    []float64
		ok   bool
		want string
	}{
		{"same", []float64{101, 102, 103, 104, 100}, true, " ok"},
		{"slower", []float64{150, 151, 152, 153, 154}, false, "WORSE"},
		{"noisy", []float64{60, 150, 200, 300, 400}, true, "unresolved"},
		{"faster", []float64{50, 51, 52, 53, 54}, true, "better"},
	} {
		var out strings.Builder
		ok, err := runCompare(&out, sp, base, write(c.name+".json", c.b...))
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: ok=%v, output:\n%s", c.name, ok, out.String())
		}
	}
}
