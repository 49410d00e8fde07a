// Example buffer60 lays out the 60 GHz buffer benchmark with both flows and
// compares their RF performance with the built-in S-parameter simulator,
// reproducing the Figure 11(b) comparison.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"rficlayout/internal/circuits"
	"rficlayout/internal/emsim"
	"rficlayout/internal/manual"
	"rficlayout/internal/pilp"
	"rficlayout/internal/report"
)

func main() {
	spec, err := circuits.BySpecName("buffer60")
	if err != nil {
		log.Fatal(err)
	}
	c := circuits.Build(spec)

	ml, err := manual.Generate(c)
	if err != nil {
		log.Fatal(err)
	}
	res, err := pilp.GenerateCtx(context.Background(), c, pilp.Options{StripTimeLimit: 2 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(report.LayoutSummary("manual", ml, 0))
	fmt.Println(report.LayoutSummary("p-ilp ", res.Layout, res.Runtime))

	freqs := emsim.Sweep(spec.Frequency, 31)
	manualRF := emsim.SimulateLayout(ml, freqs, spec.Frequency)
	pilpRF := emsim.SimulateLayout(res.Layout, freqs, spec.Frequency)
	fmt.Print(report.FormatSweep("60 GHz buffer, manual layout", manualRF))
	fmt.Print(report.FormatSweep("60 GHz buffer, P-ILP layout", pilpRF))
	fmt.Printf("gain at %.0f GHz: manual %.3f dB vs P-ILP %.3f dB\n",
		spec.Frequency,
		emsim.GainAt(manualRF, spec.Frequency),
		emsim.GainAt(pilpRF, spec.Frequency))
}
