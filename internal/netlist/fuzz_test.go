package netlist

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzParse feeds arbitrary text to the netlist parser. Hostile input may be
// rejected but must not crash or hang it, and whatever it accepts must
// survive a Format round trip: re-parsing the formatted circuit succeeds and
// yields the same Canonical text. The corpus is seeded with the repository's
// example circuits.
//
//	go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/netlist
func FuzzParse(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.rfic"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no testdata/*.rfic seed circuits found")
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	f.Fuzz(func(t *testing.T, text string) {
		c, err := ParseString(text)
		if err != nil {
			return
		}
		formatted := Format(c)
		again, err := ParseString(formatted)
		if err != nil {
			t.Fatalf("formatted circuit does not re-parse: %v\n%s", err, formatted)
		}
		if want, got := Canonical(c), Canonical(again); got != want {
			t.Fatalf("Format round trip changed the circuit:\nbefore:\n%s\nafter:\n%s", want, got)
		}
	})
}
