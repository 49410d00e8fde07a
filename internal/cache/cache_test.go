package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"rficlayout/internal/milp"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
)

const baseNetlist = `
circuit tiny
area 400 300
tech name=cmos90 t=5 width=10 delta=-4 pad=60
device M1 transistor 40 30
pin M1 in -20 0
pin M1 out 20 0
pad PIN
pad POUT
strip TL1 PIN.p M1.in length=130
strip TL2 M1.out POUT.p length=140
`

// reorderedNetlist declares the identical circuit with every section
// shuffled.
const reorderedNetlist = `
circuit tiny
area 400 300
tech name=cmos90 t=5 width=10 delta=-4 pad=60
pad POUT
device M1 transistor 40 30
pin M1 out 20 0
pin M1 in -20 0
pad PIN
strip TL2 M1.out POUT.p length=140
strip TL1 PIN.p M1.in length=130
`

func parse(t *testing.T, text string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseString(text)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestKeyStability(t *testing.T) {
	base := parse(t, baseNetlist)
	tests := []struct {
		name     string
		circuit  *netlist.Circuit
		opts     pilp.Options
		wantSame bool
	}{
		{
			name:     "identical circuit and options",
			circuit:  parse(t, baseNetlist),
			wantSame: true,
		},
		{
			name:     "reordered netlist declarations",
			circuit:  parse(t, reorderedNetlist),
			wantSame: true,
		},
		{
			name:     "worker count is output-invariant",
			circuit:  parse(t, baseNetlist),
			opts:     pilp.Options{Workers: 7},
			wantSame: true,
		},
		{
			name:     "explicit defaults equal zero values",
			circuit:  parse(t, baseNetlist),
			opts:     pilp.Options{ChainPoints: 4, MaxChainPoints: 8, MaxRefineIterations: 3},
			wantSame: true,
		},
		{
			name:     "different strip length",
			circuit:  parse(t, strings.Replace(baseNetlist, "length=130", "length=131", 1)),
			wantSame: false,
		},
		{
			name:     "different chain points",
			circuit:  parse(t, baseNetlist),
			opts:     pilp.Options{ChainPoints: 6},
			wantSame: false,
		},
		{
			name:     "different strip time limit",
			circuit:  parse(t, baseNetlist),
			opts:     pilp.Options{StripTimeLimit: time.Second},
			wantSame: false,
		},
	}
	baseKey := Key(base, pilp.Options{})
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := Key(tt.circuit, tt.opts)
			if (got == baseKey) != tt.wantSame {
				t.Errorf("Key = %s, base = %s, wantSame=%v", got, baseKey, tt.wantSame)
			}
		})
	}
}

func entry(circuit, layout string) Entry {
	return Entry{Circuit: circuit, Layout: []byte(layout), Runtime: time.Second, Nodes: 42}
}

func key(i int) string {
	return fmt.Sprintf("%064x", i)
}

func TestLRUHitMiss(t *testing.T) {
	c := NewLRU(4, 0)
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key(1), entry("a", "layout a"))
	got, ok := c.Get(key(1))
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Circuit != "a" || string(got.Layout) != "layout a" || got.Nodes != 42 || got.Runtime != time.Second {
		t.Errorf("entry mangled: %+v", got)
	}
	if _, ok := c.Get(key(2)); ok {
		t.Fatal("hit on absent key")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit, 2 misses, 1 entry", st)
	}
}

func TestLRUEviction(t *testing.T) {
	tests := []struct {
		name       string
		maxEntries int
		maxBytes   int64
		puts       int
		access     []int // gets between puts to refresh recency
		wantAlive  []int
		wantGone   []int
	}{
		{
			name:       "entry limit evicts oldest",
			maxEntries: 3,
			puts:       5,
			wantAlive:  []int{2, 3, 4},
			wantGone:   []int{0, 1},
		},
		{
			name:       "get refreshes recency",
			maxEntries: 3,
			puts:       5,
			access:     []int{0}, // touched after put 2 ⇒ survives longer than 1
			wantAlive:  []int{3, 4},
			wantGone:   []int{1, 2},
		},
		{
			name:       "byte limit evicts regardless of entry limit",
			maxEntries: 100,
			maxBytes:   3 * (10 + entryOverhead + 1), // room for ~3 entries
			puts:       5,
			wantAlive:  []int{4},
			wantGone:   []int{0, 1},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := NewLRU(tt.maxEntries, tt.maxBytes)
			for i := 0; i < tt.puts; i++ {
				c.Put(key(i), entry("c", strings.Repeat("x", 9))) // 9 + "c" = 10 bytes payload
				if i == 2 {
					for _, a := range tt.access {
						c.Get(key(a))
					}
				}
			}
			for _, i := range tt.wantAlive {
				if _, ok := c.Get(key(i)); !ok {
					t.Errorf("entry %d evicted, want alive", i)
				}
			}
			for _, i := range tt.wantGone {
				if _, ok := c.Get(key(i)); ok {
					t.Errorf("entry %d alive, want evicted", i)
				}
			}
		})
	}
}

func TestLRUOversizedEntryDropped(t *testing.T) {
	c := NewLRU(10, 256)
	c.Put(key(1), entry("small", "ok"))
	c.Put(key(2), entry("big", strings.Repeat("x", 1024)))
	if _, ok := c.Get(key(2)); ok {
		t.Error("oversized entry stored")
	}
	if _, ok := c.Get(key(1)); !ok {
		t.Error("oversized put evicted unrelated entries")
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewLRU(4, 0)
	c.Put(key(1), entry("a", "v1"))
	c.Put(key(1), entry("a", "v2 longer"))
	got, ok := c.Get(key(1))
	if !ok || string(got.Layout) != "v2 longer" {
		t.Fatalf("got %q, want updated layout", got.Layout)
	}
	if st := c.Stats(); st.Entries != 1 {
		t.Errorf("entries = %d after double put, want 1", st.Entries)
	}
}

func TestDirRoundTrip(t *testing.T) {
	d, err := NewDir(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(key(1)); ok {
		t.Fatal("hit on empty directory")
	}
	want := entry("twostage", "layout twostage\nplace M1 1 2 R0\n")
	d.Put(key(1), want)
	got, ok := d.Get(key(1))
	if !ok {
		t.Fatal("miss after Put")
	}
	if got.Circuit != want.Circuit || string(got.Layout) != string(want.Layout) ||
		got.Runtime != want.Runtime || got.Nodes != want.Nodes {
		t.Errorf("round trip mangled entry: got %+v want %+v", got, want)
	}
}

func TestDirRejectsMalformedKeys(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "short", "../../etc/passwd", strings.Repeat("Z", 64)} {
		d.Put(bad, entry("x", "y"))
		if _, ok := d.Get(bad); ok {
			t.Errorf("malformed key %q round-tripped", bad)
		}
	}
}

func TestTieredPromotion(t *testing.T) {
	fast := NewLRU(4, 0)
	slow, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(fast, slow)

	// A slow-tier-only entry is found and promoted.
	slow.Put(key(1), entry("a", "layout a"))
	if _, ok := tiered.Get(key(1)); !ok {
		t.Fatal("tiered miss on slow-tier entry")
	}
	if _, ok := fast.Get(key(1)); !ok {
		t.Error("slow-tier hit not promoted to fast tier")
	}

	// Put writes through to both tiers.
	tiered.Put(key(2), entry("b", "layout b"))
	if _, ok := fast.Get(key(2)); !ok {
		t.Error("put missing from fast tier")
	}
	if _, ok := slow.Get(key(2)); !ok {
		t.Error("put missing from slow tier")
	}
}

func TestLRUEvictionCounter(t *testing.T) {
	c := NewLRU(2, 0)
	for i := 0; i < 5; i++ {
		c.Put(key(i), entry("x", "layout"))
	}
	st := c.Stats()
	if st.Evictions != 3 {
		t.Errorf("evictions = %d, want 3 (5 puts into a 2-entry cache)", st.Evictions)
	}
	if st.Entries != 2 {
		t.Errorf("entries = %d, want 2", st.Entries)
	}
}

func TestDirStats(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(key(1)); ok {
		t.Fatal("hit on empty dir")
	}
	d.Put(key(1), entry("a", "layout a"))
	if _, ok := d.Get(key(1)); !ok {
		t.Fatal("miss after put")
	}
	st := d.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss", st)
	}
	if st.Entries != 1 || st.Bytes <= 0 {
		t.Errorf("footprint = %d entries / %d bytes, want 1 entry with bytes", st.Entries, st.Bytes)
	}
}

func TestTieredStatsCountEachLookupOnce(t *testing.T) {
	fast := NewLRU(4, 0)
	slow, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered(fast, slow)

	slow.Put(key(1), entry("a", "layout a"))
	if _, ok := tiered.Get(key(1)); !ok { // slow hit (promoted)
		t.Fatal("slow-tier entry not found")
	}
	if _, ok := tiered.Get(key(1)); !ok { // fast hit
		t.Fatal("promoted entry not found")
	}
	if _, ok := tiered.Get(key(2)); ok { // both miss
		t.Fatal("hit on absent key")
	}
	st := tiered.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Errorf("tiered stats = %+v, want 2 hits / 1 miss", st)
	}
}

// TestDirReadsLegacyShardsEntry holds the on-disk format compatible across
// the retired "shards" count: an entry written with it (valid checksum
// included) must still hit with every field intact and without quarantine,
// and freshly written entries must no longer carry the key.
func TestDirReadsLegacyShardsEntry(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const layoutText = "layout legacy\nplace M1 1 2 R0\n"
	sum := sha256.Sum256([]byte(layoutText))
	legacy := fmt.Sprintf(`{"circuit":"legacy","layout":%q,"sha256":%q,"runtime_ns":1000,"nodes":7,"shards":5,`+
		`"lp":{"pivots":11,"refactorizations":2,"warm_hits":3,"warm_misses":1,"cold_solves":4,"warm_seed_accepted":1,"warm_seed_rejected":0},`+
		`"created_at":"2026-01-02T03:04:05Z"}`, layoutText, hex.EncodeToString(sum[:]))
	if err := os.WriteFile(d.file(key(1)), []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := d.Get(key(1))
	if !ok {
		t.Fatal("legacy entry with a shards count missed")
	}
	wantLP := pilp.LPStats{
		LPStats:          milp.LPStats{Pivots: 11, Refactorizations: 2, WarmHits: 3, WarmMisses: 1, ColdSolves: 4},
		WarmSeedAccepted: 1,
	}
	if string(got.Layout) != layoutText || got.Nodes != 7 || got.LP != wantLP {
		t.Errorf("legacy entry mangled: %+v", got)
	}
	if st := d.Stats(); st.Corrupt != 0 {
		t.Errorf("corrupt = %d, want 0", st.Corrupt)
	}

	d.Put(key(2), entry("fresh", "layout fresh"))
	raw, err := os.ReadFile(d.file(key(2)))
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["shards"]; ok {
		t.Errorf("fresh entry still writes a shards key: %s", raw)
	}
}
