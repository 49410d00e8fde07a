package pilp

import (
	"context"
	"testing"
	"time"

	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
)

// The two fixtures declare the identical circuit with devices, pins and
// strips in different orders; TL1 and TL2 share a target length so the
// routing-order tie-break is exercised, and B1/B2 have no strips so the
// stub round-robin is exercised.
const orderedNetlist = `
circuit tiny
area 500 300
tech name=cmos90 t=5 width=10 delta=-4 pad=60
device B1 capacitor 30 30
pin B1 p 0 0
device B2 capacitor 30 30
pin B2 p 0 0
device M1 transistor 40 30
pin M1 in -20 0
pin M1 out 20 0
pad PIN
pad POUT
strip TL1 PIN.p M1.in length=140
strip TL2 M1.out POUT.p length=140
`

const shuffledNetlist = `
circuit tiny
area 500 300
tech name=cmos90 t=5 width=10 delta=-4 pad=60
pad POUT
device M1 transistor 40 30
pin M1 out 20 0
pin M1 in -20 0
device B2 capacitor 30 30
pin B2 p 0 0
strip TL2 M1.out POUT.p length=140
device B1 capacitor 30 30
pin B1 p 0 0
pad PIN
strip TL1 PIN.p M1.in length=140
`

// TestGenerateIndependentOfDeclarationOrder checks the premise the result
// cache is built on: circuits with equal canonical text produce
// byte-identical layouts, regardless of how the source netlist orders its
// declarations.
func TestGenerateIndependentOfDeclarationOrder(t *testing.T) {
	opts := Options{
		ChainPoints:         3,
		MaxChainPoints:      3,
		StripTimeLimit:      5 * time.Second,
		PhaseTimeLimit:      10 * time.Second,
		MaxRefineIterations: 1,
	}
	a, err := netlist.ParseString(orderedNetlist)
	if err != nil {
		t.Fatal(err)
	}
	b, err := netlist.ParseString(shuffledNetlist)
	if err != nil {
		t.Fatal(err)
	}
	if netlist.Canonical(a) != netlist.Canonical(b) {
		t.Fatal("fixtures are not canonical-equal")
	}
	ra, err := GenerateCtx(context.Background(), a, opts)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := GenerateCtx(context.Background(), b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fa, fb := layout.Format(ra.Layout), layout.Format(rb.Layout); fa != fb {
		t.Errorf("declaration order changed the layout:\n--- ordered ---\n%s\n--- shuffled ---\n%s", fa, fb)
	}
	if ra.Nodes != rb.Nodes {
		t.Errorf("declaration order changed solver effort: %d vs %d nodes", ra.Nodes, rb.Nodes)
	}
}
