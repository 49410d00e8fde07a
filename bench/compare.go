package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

func loadResults(path string) (results, error) {
	var rs results
	b, err := os.ReadFile(path)
	if err != nil {
		return rs, err
	}
	if err := json.Unmarshal(b, &rs); err != nil {
		return rs, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// values groups a results file's readings by workload and metric.
func values(rs results) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range rs.Runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, m := range r.Metrics {
			out[r.Workload][name] = append(out[r.Workload][name], m.Value)
		}
	}
	return out
}

// runCompare prints, for every workload and metric both files have, each
// side's median and quartiles. An end-to-end metric whose median got worse
// from A to B by more than its bound is flagged WORSE, unless either side's
// spread (quartile distance over median) exceeds the bound: then the
// comparison is "unresolved", except when every run of B reads better than
// every run of A. It reports whether nothing was flagged WORSE.
func runCompare(w io.Writer, sp spec, pathA, pathB string) (bool, error) {
	ra, err := loadResults(pathA)
	if err != nil {
		return false, err
	}
	rb, err := loadResults(pathB)
	if err != nil {
		return false, err
	}
	va, vb := values(ra), values(rb)

	type bound struct {
		lower bool
		bound float64
	}
	var order []string
	bounds := map[string]bound{}
	for _, m := range sp.EndToEnd {
		order = append(order, m.Name)
		bounds[m.Name] = bound{m.Better == "lower", m.Bound}
	}
	for _, m := range sp.PerLayer {
		order = append(order, m.Name)
	}
	var workloadOrder []string
	for _, wl := range sp.Workloads {
		workloadOrder = append(workloadOrder, wl.Name)
	}

	ok := true
	fmt.Fprintf(w, "%-12s %-26s %-34s %-34s %8s  %s\n", "workload", "metric", "A median [q1 q3] n", "B median [q1 q3] n", "change", "verdict")
	for _, wl := range workloadOrder {
		for _, name := range order {
			xa, xb := va[wl][name], vb[wl][name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			a1, am, a3 := spread(xa)
			b1, bm, b3 := spread(xb)
			verdict := ""
			if bd, e2e := bounds[name]; e2e {
				worse := ratio(bm-am, am)
				if !bd.lower {
					worse = -worse
				}
				verdict = "ok"
				switch {
				case allBetter(xa, xb, bd.lower):
					verdict = "better"
				case ratio(a3-a1, am) > bd.bound || ratio(b3-b1, bm) > bd.bound:
					verdict = "unresolved"
				case worse > bd.bound:
					verdict = fmt.Sprintf("WORSE (bound %.0f%%)", 100*bd.bound)
					ok = false
				}
			}
			fmt.Fprintf(w, "%-12s %-26s %-34s %-34s %+7.1f%%  %s\n", wl, name,
				fmt.Sprintf("%.4g [%.4g %.4g] %d", am, a1, a3, len(xa)),
				fmt.Sprintf("%.4g [%.4g %.4g] %d", bm, b1, b3, len(xb)),
				100*ratio(bm-am, am), verdict)
		}
	}
	return ok, nil
}

// spread returns the quartiles of xs; a single reading is its own quartiles.
func spread(xs []float64) (q1, q2, q3 float64) {
	if len(xs) < 2 {
		return xs[0], xs[0], xs[0]
	}
	return quartiles(xs)
}

// allBetter reports whether every reading of b beats every reading of a.
func allBetter(a, b []float64, lower bool) bool {
	sa := append([]float64(nil), a...)
	sb := append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	if lower {
		return sb[len(sb)-1] < sa[0]
	}
	return sb[0] > sa[len(sa)-1]
}
