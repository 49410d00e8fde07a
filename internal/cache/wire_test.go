package cache

import (
	"os"
	"regexp"
	"testing"
	"time"

	"rficlayout/internal/pilp"
)

// createdAt matches the one Dir entry field that changes between writes.
var createdAt = regexp.MustCompile(`"created_at":"[^"]*"`)

// TestDirEntryWireBytes pins the on-disk form of a fresh Dir entry byte for
// byte (created_at masked). Servers and CLIs sharing a cache directory read
// each other's entries, so the key names, their order and the omission of
// PeakEta are part of the format.
func TestDirEntryWireBytes(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := Entry{Circuit: "tiny", Layout: []byte("layout tiny\nplace M1 128 100 R0\n"), Runtime: 1500 * time.Millisecond}
	e.Nodes = 2332
	e.LP = pilp.LPStats{Pivots: 812, Refactorizations: 41, WarmHits: 120, WarmMisses: 8, ColdSolves: 12, PeakEta: 37}
	d.Put(key(1), e)
	raw, err := os.ReadFile(d.file(key(1)))
	if err != nil {
		t.Fatal(err)
	}
	got := createdAt.ReplaceAllString(string(raw), `"created_at":"<masked>"`)
	const want = `{"circuit":"tiny","layout":"layout tiny\nplace M1 128 100 R0\n",` +
		`"sha256":"07430575294ef706566b5519e3fc51add5c630a34eaec7c54e15a8eabbd36258","runtime_ns":1500000000,"nodes":2332,` +
		`"lp":{"pivots":812,"refactorizations":41,"warm_hits":120,"warm_misses":8,"cold_solves":12},` +
		`"created_at":"<masked>"}`
	if got != want {
		t.Errorf("Dir entry bytes drifted:\n got %s\nwant %s", got, want)
	}
}
