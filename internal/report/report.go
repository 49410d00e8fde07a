// Package report formats the benchmark results of the experiment harness in
// the shape of the paper's Table 1 and Figure 11 data series.
package report

import (
	"fmt"
	"strings"
	"time"

	"rficlayout/internal/emsim"
	"rficlayout/internal/geom"
	"rficlayout/internal/layout"
	"rficlayout/internal/pilp"
)

// Table1Row is one circuit/area row of Table 1.
type Table1Row struct {
	Circuit     string
	Microstrips int
	Devices     int
	AreaWidth   geom.Coord
	AreaHeight  geom.Coord

	ManualMaxBends   int
	ManualTotalBends int
	ManualRuntime    time.Duration
	ManualAvailable  bool

	PILPMaxBends   int
	PILPTotalBends int
	PILPRuntime    time.Duration
	// PILPUnmatched counts microstrips whose exact length could not be
	// closed by the from-scratch solver (0 for a fully exact layout).
	PILPUnmatched int
}

// FormatTable1 renders rows in the layout of the paper's Table 1.
func FormatTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %8s %8s %12s | %18s | %18s | %22s\n",
		"Circuit", "#strips", "#devices", "Area(µm)", "Max bends (M/P)", "Total bends (M/P)", "Runtime (M/P)")
	for _, r := range rows {
		area := fmt.Sprintf("%.0f×%.0f", geom.Microns(r.AreaWidth), geom.Microns(r.AreaHeight))
		manualMax, manualTotal, manualRT := "n/a", "n/a", "n/a"
		if r.ManualAvailable {
			manualMax = fmt.Sprintf("%d", r.ManualMaxBends)
			manualTotal = fmt.Sprintf("%d", r.ManualTotalBends)
			manualRT = r.ManualRuntime.Round(time.Millisecond).String()
		}
		fmt.Fprintf(&b, "%-10s %8d %8d %12s | %8s /%8d | %8s /%8d | %10s /%10s",
			r.Circuit, r.Microstrips, r.Devices, area,
			manualMax, r.PILPMaxBends,
			manualTotal, r.PILPTotalBends,
			manualRT, r.PILPRuntime.Round(time.Millisecond))
		if r.PILPUnmatched > 0 {
			fmt.Fprintf(&b, "   (%d strips not exactly matched)", r.PILPUnmatched)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// FormatSweep renders an S-parameter sweep as the data series behind one
// Figure 11 panel.
func FormatSweep(title string, results []emsim.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", title)
	fmt.Fprintf(&b, "%10s %10s %10s %10s\n", "freq(GHz)", "S11(dB)", "S21(dB)", "S22(dB)")
	for _, r := range results {
		fmt.Fprintf(&b, "%10.2f %10.3f %10.3f %10.3f\n", r.FreqGHz, r.S11dB, r.S21dB, r.S22dB)
	}
	return b.String()
}

// LayoutSummary is a one-line description of a layout's quality metrics.
func LayoutSummary(name string, l *layout.Layout, runtime time.Duration) string {
	m := l.Metrics()
	violations := pilp.Violations(l)
	return fmt.Sprintf("%s: max bends %d, total bends %d, max |Δl| %.2f µm, %d DRC violations, runtime %s",
		name, m.MaxBends, m.TotalBends, geom.Microns(m.MaxLengthError), len(violations),
		runtime.Round(time.Millisecond))
}

// UnmatchedStrips counts the strips whose equivalent length misses the target
// by more than the tolerance.
func UnmatchedStrips(l *layout.Layout, tol geom.Coord) int {
	delta := l.Circuit.Tech.BendCompensation
	n := 0
	for _, rs := range l.RoutedStrips() {
		if geom.AbsCoord(rs.LengthError(delta)) > tol {
			n++
		}
	}
	return n
}
