// Example customflow shows the lower-level API: writing a circuit in the text
// format, parsing it, inspecting each phase of the progressive flow and
// running the design-rule checker on the result.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rficlayout/internal/layout"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
)

const circuitFile = `
circuit custom
area 450 360
tech name=cmos90 t=5 width=10 delta=-4 pad=60

device M1 transistor 36 28
pin M1 in -18 0
pin M1 out 18 0
device C1 capacitor 45 35
pin C1 p 0 -17.5
pad P1
pad P2

strip TL1 P1.p M1.in length=170
strip TL2 M1.out P2.p length=210
strip TL3 M1.out C1.p length=95
`

func main() {
	c, err := netlist.ParseString(circuitFile)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("parsed:", c.Stats())

	res, err := pilp.GenerateCtx(context.Background(), c, pilp.Options{
		StripTimeLimit:      3 * time.Second,
		MaxRefineIterations: 2,
		Logf:                func(f string, a ...interface{}) { fmt.Printf("  "+f+"\n", a...) },
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, snap := range res.Snapshots {
		fmt.Printf("%-28s %s (violations %d, %.1fs)\n",
			snap.Phase, snap.Layout.Metrics(), len(pilp.Violations(snap.Layout)), snap.Elapsed.Seconds())
	}
	violations := pilp.Violations(res.Layout)
	fmt.Printf("final DRC: %d violations\n", len(violations))
	for _, v := range violations {
		fmt.Println("  ", v)
	}
	fmt.Println(layout.Format(res.Layout))
}
