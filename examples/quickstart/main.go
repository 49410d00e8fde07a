// Quickstart: build a tiny RFIC circuit programmatically, run the progressive
// ILP layout flow and print the resulting quality metrics.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rficlayout/internal/geom"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
	"rficlayout/internal/tech"
)

func main() {
	// A one-transistor amplifier in a 400×300 µm area.
	c := netlist.NewCircuit("quickstart", tech.Default90nm(), geom.FromMicrons(400), geom.FromMicrons(300))
	m1 := netlist.NewDevice("M1", netlist.Transistor, geom.FromMicrons(40), geom.FromMicrons(30))
	m1.AddPin("in", geom.PtMicrons(-20, 0), 0)
	m1.AddPin("out", geom.PtMicrons(20, 0), 0)
	c.AddDevice(m1)
	c.AddDevice(netlist.NewPad("PIN", c.Tech.PadSize))
	c.AddDevice(netlist.NewPad("POUT", c.Tech.PadSize))
	// Exact microstrip lengths come from the circuit design.
	c.Connect("TLIN", "PIN", "p", "M1", "in", geom.FromMicrons(180))
	c.Connect("TLOUT", "M1", "out", "POUT", "p", geom.FromMicrons(200))

	res, err := pilp.GenerateCtx(context.Background(), c, pilp.Options{StripTimeLimit: 3 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("layout:", res.Layout.Metrics())
	for _, rs := range res.Layout.RoutedStrips() {
		fmt.Printf("  %s: %d bends, equivalent length %.2f µm (target %.2f µm)\n",
			rs.Strip.Name, rs.Bends(),
			geom.Microns(rs.EquivalentLength(c.Tech.BendCompensation)),
			geom.Microns(rs.Strip.TargetLength))
	}
	fmt.Println("violations:", len(pilp.Violations(res.Layout)))
	fmt.Println("runtime:", res.Runtime.Round(time.Millisecond))
}
