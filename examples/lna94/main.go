// Example lna94 reproduces the paper's flagship experiment: the 94 GHz LNA of
// Table 1, laid out by the emulated manual flow and by the P-ILP flow at both
// published area settings, with an SVG written for each result.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rficlayout/internal/circuits"
	"rficlayout/internal/layout"
	"rficlayout/internal/manual"
	"rficlayout/internal/pilp"
	"rficlayout/internal/report"
)

func main() {
	spec, err := circuits.BySpecName("lna94")
	if err != nil {
		log.Fatal(err)
	}
	for _, small := range []bool{false, true} {
		c := circuits.Build(spec)
		label := "area 890×615"
		if small {
			c = circuits.BuildSmallArea(spec)
			label = "area 845×580 (stress)"
		}
		fmt.Println("=== 94 GHz LNA,", label, "===")

		if !small {
			start := time.Now()
			ml, err := manual.Generate(c)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Println(report.LayoutSummary("manual ", ml, time.Since(start)))
		}
		start := time.Now()
		res, err := pilp.GenerateCtx(context.Background(), c, pilp.Options{StripTimeLimit: 2 * time.Second})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(report.LayoutSummary("p-ilp  ", res.Layout, time.Since(start)))
		name := fmt.Sprintf("lna94_pilp_small=%v.svg", small)
		if err := layout.SaveSVG(name, res.Layout, "94 GHz LNA (P-ILP)"); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", name)
	}
}
