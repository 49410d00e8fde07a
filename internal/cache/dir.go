package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"rficlayout/internal/faultinject"
	"rficlayout/internal/pilp"
)

// Dir is a directory-backed cache tier: one JSON file per entry, named by
// the content-address key. It persists across process runs, which is what
// lets a second `rficgen -cache DIR` invocation skip circuits the first one
// solved. Writes go through a temp file + rename so concurrent processes
// sharing a directory never observe torn entries. Dir is safe for concurrent
// use; all I/O errors degrade to cache misses or dropped writes.
//
// The tier is self-healing: every entry records the SHA-256 of its layout
// text at write time and Get verifies it (plus JSON well-formedness) at read
// time. A corrupt entry is quarantined — renamed to <key>.json.corrupt so it
// stops matching the entry suffix but survives for forensics — counted in
// Stats.Corrupt, and reported as a miss, so the caller re-solves and the next
// Put overwrites the bad entry with a good one. Transient injected read
// errors (faultinject) are retried a bounded, deterministic number of times
// before degrading to a miss.
type Dir struct {
	path    string
	hits    atomic.Int64
	misses  atomic.Int64
	corrupt atomic.Int64
}

// readRetries bounds the deterministic retry loop for transient read errors.
const readRetries = 3

// NewDir opens (creating if needed) a directory-backed cache tier.
func NewDir(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("cache: creating cache directory: %w", err)
	}
	return &Dir{path: path}, nil
}

// diskEntry is the JSON on-disk form of an Entry. Unknown keys are ignored
// on read, so entries carrying a field a later version retired still hit.
type diskEntry struct {
	Circuit string `json:"circuit"`
	Layout  string `json:"layout"`
	// Checksum is the hex SHA-256 of Layout, written since the self-healing
	// tier landed; entries without it (or written before it) skip
	// verification, so old caches keep working.
	Checksum  string       `json:"sha256,omitempty"`
	RuntimeNS int64        `json:"runtime_ns"`
	Nodes     int          `json:"nodes"`
	LP        *diskLPStats `json:"lp,omitempty"`
	CreatedAt time.Time    `json:"created_at"`
}

// diskLPStats is the on-disk form of the simplex-effort counters; a nil
// pointer (entries predating the counters) decodes to zeros.
type diskLPStats struct {
	Pivots           int `json:"pivots"`
	Refactorizations int `json:"refactorizations"`
	WarmHits         int `json:"warm_hits"`
	WarmMisses       int `json:"warm_misses"`
	ColdSolves       int `json:"cold_solves"`
	WarmSeedAccepted int `json:"warm_seed_accepted"`
	WarmSeedRejected int `json:"warm_seed_rejected"`
}

func toDiskLPStats(s pilp.LPStats) *diskLPStats {
	if s == (pilp.LPStats{}) {
		return nil
	}
	return &diskLPStats{
		Pivots:           s.Pivots,
		Refactorizations: s.Refactorizations,
		WarmHits:         s.WarmHits,
		WarmMisses:       s.WarmMisses,
		ColdSolves:       s.ColdSolves,
		WarmSeedAccepted: s.WarmSeedAccepted,
		WarmSeedRejected: s.WarmSeedRejected,
	}
}

func fromDiskLPStats(d *diskLPStats) pilp.LPStats {
	if d == nil {
		return pilp.LPStats{}
	}
	s := pilp.LPStats{
		WarmSeedAccepted: d.WarmSeedAccepted,
		WarmSeedRejected: d.WarmSeedRejected,
	}
	s.Pivots = d.Pivots
	s.Refactorizations = d.Refactorizations
	s.WarmHits = d.WarmHits
	s.WarmMisses = d.WarmMisses
	s.ColdSolves = d.ColdSolves
	return s
}

// keyOK rejects keys that are not hex content addresses, so a malformed key
// can never escape the cache directory.
func keyOK(key string) bool {
	if len(key) != 64 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (d *Dir) file(key string) string {
	return filepath.Join(d.path, key+".json")
}

// Get reads the entry stored under key; any read or decode failure is a
// miss. Decode failures and checksum mismatches additionally quarantine the
// file so the same corrupt entry is never re-read.
func (d *Dir) Get(key string) (Entry, bool) {
	if !keyOK(key) {
		d.misses.Add(1)
		return Entry{}, false
	}
	data, err := d.read(d.file(key))
	if err != nil {
		d.misses.Add(1)
		return Entry{}, false
	}
	var de diskEntry
	if err := json.Unmarshal(data, &de); err != nil {
		d.quarantine(key)
		d.misses.Add(1)
		return Entry{}, false
	}
	if de.Checksum != "" && de.Checksum != layoutChecksum(de.Layout) {
		d.quarantine(key)
		d.misses.Add(1)
		return Entry{}, false
	}
	d.hits.Add(1)
	return Entry{
		Circuit: de.Circuit,
		Layout:  []byte(de.Layout),
		Runtime: time.Duration(de.RuntimeNS),
		Nodes:   de.Nodes,
		LP:      fromDiskLPStats(de.LP),
	}, true
}

// read is os.ReadFile plus the injected-transient-error retry loop: an
// injected read error is retried up to readRetries times (the injection
// schedule is deterministic, so so is the retry outcome); real I/O errors
// degrade to a miss immediately, as before.
func (d *Dir) read(path string) ([]byte, error) {
	var err error
	for attempt := 0; attempt <= readRetries; attempt++ {
		if err = faultinject.ErrorAt(faultinject.PointCacheRead); err != nil {
			continue
		}
		var data []byte
		if data, err = os.ReadFile(path); err != nil {
			return nil, err
		}
		return data, nil
	}
	return nil, err
}

// quarantine renames a corrupt entry to <key>.json.corrupt — off the entry
// namespace (Stats and Get only look at *.json) but preserved for forensics.
// If the rename fails for any reason other than the entry already being gone,
// the file is removed outright; either way the corrupt bytes can never be
// served. The corrupt counter increments only for the caller whose rename (or
// fallback remove) actually transitioned the file: two readers racing on the
// same corrupt entry both read the bad bytes, but the rename is atomic, so
// exactly one of them quarantines and counts — the invariant the chaos
// battery's corrupt == fired(torn) reconciliation rests on.
func (d *Dir) quarantine(key string) {
	path := d.file(key)
	if err := os.Rename(path, path+".corrupt"); err == nil {
		d.corrupt.Add(1)
		return
	} else if os.IsNotExist(err) {
		// A concurrent reader already quarantined (or a Put replaced) it.
		return
	}
	if os.Remove(path) == nil {
		d.corrupt.Add(1)
	}
}

// layoutChecksum is the per-entry integrity hash: hex SHA-256 of the layout
// text, the one field whose silent corruption would poison downstream
// byte-identity guarantees.
func layoutChecksum(layout string) string {
	sum := sha256.Sum256([]byte(layout))
	return hex.EncodeToString(sum[:])
}

// Put writes the entry under key; failures are silently dropped (the cache
// is an optimization, never a correctness dependency).
func (d *Dir) Put(key string, e Entry) {
	if !keyOK(key) {
		return
	}
	if err := faultinject.ErrorAt(faultinject.PointCacheWrite); err != nil {
		return
	}
	data, err := json.Marshal(diskEntry{
		Circuit:   e.Circuit,
		Layout:    string(e.Layout),
		Checksum:  layoutChecksum(string(e.Layout)),
		RuntimeNS: int64(e.Runtime),
		Nodes:     e.Nodes,
		LP:        toDiskLPStats(e.LP),
		CreatedAt: time.Now().UTC(),
	})
	if err != nil {
		return
	}
	if faultinject.Fired(faultinject.PointCacheTorn) {
		// A torn write commits only a prefix of the entry: either truncated
		// JSON (decode failure) or — because the checksum field precedes the
		// layout tail — a mismatching checksum. Both trip quarantine on read.
		data = data[:len(data)/2]
	}
	tmp, err := os.CreateTemp(d.path, "put-*.tmp")
	if err != nil {
		return
	}
	name := tmp.Name()
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(name)
		return
	}
	if err := faultinject.ErrorAt(faultinject.PointCacheRename); err != nil {
		os.Remove(name)
		return
	}
	if err := os.Rename(name, d.file(key)); err != nil {
		os.Remove(name)
	}
}

// Stats reports the hit/miss counters of this process plus the directory's
// current footprint (entry files and their byte total, scanned on demand).
func (d *Dir) Stats() Stats {
	s := Stats{Hits: d.hits.Load(), Misses: d.misses.Load(), Corrupt: d.corrupt.Load()}
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return s
	}
	for _, de := range entries {
		if de.IsDir() || !strings.HasSuffix(de.Name(), ".json") {
			continue
		}
		s.Entries++
		if info, err := de.Info(); err == nil {
			s.Bytes += info.Size()
		}
	}
	return s
}

// Tiered layers a fast cache in front of a slow one: gets try fast first and
// promote slow hits, puts write through to both.
type Tiered struct {
	fast Cache
	slow Cache

	hits   atomic.Int64
	misses atomic.Int64
}

// NewTiered combines a fast (typically in-memory) and a slow (typically
// on-disk) tier.
func NewTiered(fast, slow Cache) *Tiered {
	return &Tiered{fast: fast, slow: slow}
}

// Get tries the fast tier, falls back to the slow tier and promotes hits.
func (t *Tiered) Get(key string) (Entry, bool) {
	if e, ok := t.fast.Get(key); ok {
		t.hits.Add(1)
		return e, true
	}
	e, ok := t.slow.Get(key)
	if ok {
		t.hits.Add(1)
		t.fast.Put(key, e)
	} else {
		t.misses.Add(1)
	}
	return e, ok
}

// Stats reports the combined view: a hit in either tier counts once (the
// per-tier counters would double-count fast misses that the slow tier
// answers), while evictions and the footprint come from the fast tier when
// it can report them.
func (t *Tiered) Stats() Stats {
	s := Stats{Hits: t.hits.Load(), Misses: t.misses.Load()}
	if sr, ok := t.fast.(StatsReader); ok {
		fs := sr.Stats()
		s.Evictions = fs.Evictions
		s.Entries = fs.Entries
		s.Bytes = fs.Bytes
	}
	// Corruption only happens in the persistent (slow) tier; surface it so
	// /healthz sees quarantines even behind the memory tier.
	if sr, ok := t.slow.(StatsReader); ok {
		s.Corrupt = sr.Stats().Corrupt
	}
	return s
}

// Put writes through to both tiers.
func (t *Tiered) Put(key string, e Entry) {
	t.fast.Put(key, e)
	t.slow.Put(key, e)
}
