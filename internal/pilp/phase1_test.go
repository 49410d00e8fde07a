package pilp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"testing"

	"rficlayout/internal/circuits"
	"rficlayout/internal/circuits/fuzz"
	"rficlayout/internal/ilpmodel"
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
