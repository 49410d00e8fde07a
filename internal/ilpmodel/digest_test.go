package ilpmodel_test

import (
	"testing"

	"rficlayout/internal/circuits"
	"rficlayout/internal/geom"
	"rficlayout/internal/ilpmodel"
	"rficlayout/internal/pilp"
)

// TestBuildDigestDeterministic pins the claim the determinism contract and
// pilp's solve memo rest on: a model is a pure function of the circuit and
// the Config, so two builds from equal inputs have equal digests. The
// configurations are the flow's two model shapes on a Table 1 circuit —
// the phase-1 global adjustment and a per-strip exact model against the
// constructed layout — each rebuilt from freshly made Config values.
func TestBuildDigestDeterministic(t *testing.T) {
	c := circuits.Build(circuits.Table1()[0])
	fixed, err := pilp.Construct(c)
	if err != nil {
		t.Fatal(err)
	}
	strip := c.Microstrips[0].Name
	configs := map[string]func() ilpmodel.Config{
		"phase1": func() ilpmodel.Config {
			strips := []string{}
			for _, ms := range c.Microstrips {
				strips = append(strips, ms.Name)
			}
			free := []string{}
			for _, d := range c.NonPadDevices() {
				free = append(free, d.Name)
			}
			return ilpmodel.Config{
				FreeDevices: free, FreeStrips: strips, Fixed: fixed, Global: true,
				Confinement: 120 * geom.Micron, PairRadius: pilp.DefaultPairRadius,
			}
		},
		"strip": func() ilpmodel.Config {
			return ilpmodel.Config{
				DefaultChainPoints: 4, FreeStrips: []string{strip}, Fixed: fixed, PairRadius: pilp.DefaultPairRadius,
			}
		},
	}
	for name, cfg := range configs {
		first, err := ilpmodel.Build(c, cfg())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		second, err := ilpmodel.Build(c, cfg())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if first.MILP.Digest() != second.MILP.Digest() {
			t.Errorf("%s: two builds from equal inputs digest differently (%s)", name, first.Stats())
		}
	}
}
