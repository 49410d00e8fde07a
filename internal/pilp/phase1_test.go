package pilp

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"rficlayout/internal/circuits"
	"rficlayout/internal/circuits/fuzz"
	"rficlayout/internal/ilpmodel"
	"rficlayout/internal/milp"
	"rficlayout/internal/netlist"
)

// TestPhase1ModelIsPureLP pins that the global-adjustment model carries no
// binary variable: pads stay fixed and topology and relative positions come
// from the constructed layout, so its branch and bound is the root LP alone.
// milp's search is sequential because every model with a binary is a
// per-strip model, solved beside many others on the flow's worker pool; a
// phase-1 MILP would be one large search with the pool idle.
//
// On the same constructed layouts it builds every strip's one-strip and
// neighbourhood model, the shapes of phases 2 and 3, and requires each build
// to succeed: a model the flow cannot build is a solve it silently skips.
// In particular no such model may free a pad.
//
// It also hashes the digests of all the models it builds, in a fixed order,
// and compares the hash to a pinned value: a model golden for refactors that
// must leave every model unchanged. A change that alters models on purpose
// re-pins it.
func TestPhase1ModelIsPureLP(t *testing.T) {
	cases := map[string]*netlist.Circuit{}
	for _, name := range []string{"mini.rfic", "twostage.rfic", "fuzzmin.rfic"} {
		cases[name] = testdataCircuit(t, name)
	}
	for _, s := range circuits.Table1() {
		cases[s.Name+"/A"] = circuits.Build(s)
		cases[s.Name+"/B"] = circuits.BuildSmallArea(s)
	}
	// One full topology matrix: every generator profile once.
	for seed := int64(1); seed <= fuzz.ProfilePeriod; seed++ {
		c, _ := fuzz.Generate(seed)
		cases[fmt.Sprintf("fuzz%d", seed)] = c
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	digests := sha256.New()
	record := func(m *ilpmodel.Model) {
		d := m.MILP.Digest()
		digests.Write(d[:])
	}
	opts := Options{}
	for _, name := range names {
		c := netlist.Normalized(cases[name])
		constructed, err := Construct(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := phase1Model(c, constructed, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		record(m)
		if n := m.MILP.NumBinaries(); n != 0 {
			t.Errorf("%s: phase-1 model has %d binaries (%s), want a pure LP", name, n, m.Stats())
		}
		for _, ms := range c.Microstrips {
			strips, devices := neighbourhood(c, ms.Name)
			for n := 2; n <= 3; n++ {
				one, err := stripModel(c, constructed, []string{ms.Name}, n, nil, opts)
				if err != nil {
					t.Fatalf("%s: one-strip model of %s at %d chain points: %v", name, ms.Name, n, err)
				}
				record(one)
				local, err := stripModel(c, constructed, strips, n, devices, opts)
				if err != nil {
					t.Fatalf("%s: neighbourhood model of %s at %d chain points: %v", name, ms.Name, n, err)
				}
				record(local)
			}
		}
	}
	const want = "d7981e2d3b2cc77b5bda17af91336971e4adb4c5063f584c9c5372a68f104994"
	if got := hex.EncodeToString(digests.Sum(nil)); got != want {
		t.Errorf("model digests hash to %s, want %s", got, want)
	}
}

// TestLayoutSolvesPinned is an LP-level golden: on the three testdata
// fixtures and the six Table 1 cells it solves the phase-1 model and the
// one-strip models of the first two microstrips (of the only one, on a
// one-strip fixture) under a 5-node budget. It hashes each Result's status,
// node count, pivots, refactorizations and the exact bits of Objective and
// X, and compares the hash to a pinned value. The layout goldens round
// coordinates to whole nanometres, so a change to the simplex arithmetic
// that moves no rounded coordinate shows here first. A change meant to be
// bit-identical, such as a leaner basis factorization, must leave the hash
// unchanged.
func TestLayoutSolvesPinned(t *testing.T) {
	cases := map[string]*netlist.Circuit{}
	for _, name := range []string{"mini.rfic", "twostage.rfic", "fuzzmin.rfic"} {
		cases[name] = testdataCircuit(t, name)
	}
	for _, s := range circuits.Table1() {
		cases[s.Name+"/A"] = circuits.Build(s)
		cases[s.Name+"/B"] = circuits.BuildSmallArea(s)
	}
	names := make([]string, 0, len(cases))
	for name := range cases {
		names = append(names, name)
	}
	sort.Strings(names)
	results := sha256.New()
	var buf []byte
	solve := func(name string, m *ilpmodel.Model) {
		r, err := m.MILP.SolveCtx(context.Background(), milp.SolveOptions{MaxNodes: 5})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		buf = buf[:0]
		for _, v := range []int{int(r.Status), r.Nodes, r.LP.Pivots, r.LP.Refactorizations, len(r.X)} {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Objective))
		for _, x := range r.X {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
		}
		results.Write(buf)
	}
	opts := Options{}
	for _, name := range names {
		c := netlist.Normalized(cases[name])
		constructed, err := Construct(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := phase1Model(c, constructed, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		solve(name, m)
		for _, ms := range c.Microstrips[:min(2, len(c.Microstrips))] {
			one, err := stripModel(c, constructed, []string{ms.Name}, opts.chainPoints(), nil, opts)
			if err != nil {
				t.Fatalf("%s: one-strip model of %s: %v", name, ms.Name, err)
			}
			solve(name+"/"+ms.Name, one)
		}
	}
	const want = "2ca9b65a9825af2e61cb20a92f13f49fb069228c8f7bd16e84370e19d0bbf4c0"
	if got := hex.EncodeToString(results.Sum(nil)); got != want {
		t.Errorf("layout solves hash to %s, want %s", got, want)
	}
}
