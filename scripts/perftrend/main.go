// Command perftrend folds rficbench -stats-out JSONL artifacts into a
// perf-trajectory report. CI archives one stats file per run; pointing this
// tool at those files (in chronological order — pass them oldest first, e.g.
// by PR number) prints, per circuit/variant series, how the deterministic
// effort counters (branch-and-bound nodes, simplex pivots) and the
// wall-clock runtime moved from the first archive to the last. Node and
// pivot counts are deterministic, so any movement there is a real solver
// change; runtime is scheduling noise unless it moves a lot.
//
// Usage:
//
//	go run ./scripts/perftrend pr41.jsonl pr42.jsonl pr43.jsonl
//	go run ./scripts/perftrend -series lp-warm artifacts/*.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// record mirrors rficbench's solveRecord; unknown fields are ignored so the
// tool reads archives from any PR vintage.
type record struct {
	Circuit   string `json:"circuit"`
	Variant   string `json:"variant"`
	RuntimeNS int64  `json:"runtime_ns"`
	Nodes     int    `json:"nodes"`
	LPPivots  int    `json:"lp_pivots"`
}

func (r record) series() string {
	if r.Variant == "" {
		return r.Circuit
	}
	return r.Circuit + "/" + r.Variant
}

// point is one archive's accumulated totals for a series. A series can
// appear several times in one archive (e.g. repeated solves); summing keeps
// the totals comparable as long as the benchmark matrix is stable.
type point struct {
	runtime time.Duration
	nodes   int
	pivots  int
	count   int
}

func parseFile(path string) (map[string]point, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

func parse(r io.Reader) (map[string]point, error) {
	out := map[string]point{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		if rec.Circuit == "" {
			continue
		}
		p := out[rec.series()]
		p.runtime += time.Duration(rec.RuntimeNS)
		p.nodes += rec.Nodes
		p.pivots += rec.LPPivots
		p.count++
		out[rec.series()] = p
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// delta renders new relative to old as a signed percentage, or "new" when
// the series did not exist in the oldest archive.
func delta(old, new int) string {
	if old == 0 {
		if new == 0 {
			return "-"
		}
		return "new"
	}
	return fmt.Sprintf("%+.1f%%", 100*(float64(new)-float64(old))/float64(old))
}

func report(w io.Writer, labels []string, archives []map[string]point, filter string) {
	series := map[string]bool{}
	for _, a := range archives {
		for s := range a {
			if filter == "" || strings.Contains(s, filter) {
				series[s] = true
			}
		}
	}
	names := make([]string, 0, len(series))
	for s := range series {
		names = append(names, s)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "perftrend: %d archive(s): %s\n", len(labels), strings.Join(labels, ", "))
	fmt.Fprintf(w, "%-40s %10s %12s %12s %9s %9s %10s\n",
		"series", "solves", "nodes", "lp_pivots", "Δnodes", "Δpivots", "runtime")
	for _, name := range names {
		first, last := archives[0][name], archives[len(archives)-1][name]
		fmt.Fprintf(w, "%-40s %10d %12d %12d %9s %9s %10s\n",
			name, last.count, last.nodes, last.pivots,
			delta(first.nodes, last.nodes), delta(first.pivots, last.pivots),
			last.runtime.Round(time.Millisecond))
	}
}

func main() {
	filter := flag.String("series", "", "only report series whose circuit/variant contains this substring")
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: perftrend [-series SUBSTR] stats1.jsonl [stats2.jsonl ...] (oldest first)")
		os.Exit(2)
	}
	var labels []string
	var archives []map[string]point
	for _, path := range flag.Args() {
		pts, err := parseFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perftrend: %s: %v\n", path, err)
			os.Exit(1)
		}
		labels = append(labels, path)
		archives = append(archives, pts)
	}
	report(os.Stdout, labels, archives, *filter)
}
