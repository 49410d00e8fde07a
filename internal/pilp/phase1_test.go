package pilp

import (
	"fmt"
	"testing"

	"rficlayout/internal/circuits"
	"rficlayout/internal/circuits/fuzz"
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
	opts := Options{}
	for name, c := range cases {
		c = netlist.Normalized(c)
		constructed, err := Construct(c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, err := phase1Model(c, constructed, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n := m.MILP.NumBinaries(); n != 0 {
			t.Errorf("%s: phase-1 model has %d binaries (%s), want a pure LP", name, n, m.Stats())
		}
		for _, ms := range c.Microstrips {
			strips, devices := neighbourhood(c, ms.Name)
			for n := 2; n <= 3; n++ {
				if _, err := stripModel(c, constructed, []string{ms.Name}, n, nil, opts); err != nil {
					t.Errorf("%s: one-strip model of %s at %d chain points: %v", name, ms.Name, n, err)
				}
				if _, err := stripModel(c, constructed, strips, n, devices, opts); err != nil {
					t.Errorf("%s: neighbourhood model of %s at %d chain points: %v", name, ms.Name, n, err)
				}
			}
		}
	}
}
