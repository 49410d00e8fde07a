// Package cache provides a content-addressed result cache for the layout
// flow. The progressive solver is a pure function of the parsed circuit and
// the solve options (see the determinism contract in doc.go), so a cache
// keyed by a canonical hash of both returns *exact* results: a hit is
// byte-identical to what re-solving would produce. The package offers an
// in-memory LRU tier with entry and byte limits, a directory-backed tier
// that persists across process runs, and a Tiered combination of the two;
// internal/server and cmd/rficgen sit in front of the engine with one of
// these.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
)

// Key returns the content address of one solve: the hex SHA-256 of the
// canonical circuit text plus the solve-option fingerprint. Declaration
// order in the source netlist does not matter (netlist.Canonical sorts it
// away), and neither do output-invariant options such as worker counts
// (pilp.Options.Fingerprint excludes them).
func Key(c *netlist.Circuit, opts pilp.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "rficlayout-cache-v1\n%s\noptions %s\n", netlist.Canonical(c), opts.Fingerprint())
	return hex.EncodeToString(h.Sum(nil))
}

// Entry is one cached solve outcome. Layout holds the layout text exactly as
// layout.Format rendered it after the original solve, so serving the cached
// bytes is byte-identical to re-solving; Runtime and Nodes echo the original
// solve's stats so front-ends can report them alongside a hit.
type Entry struct {
	// Circuit is the circuit name, for listings and sanity checks.
	Circuit string
	// Layout is the layout text (layout.Format output).
	Layout []byte
	// Runtime is the wall-clock time of the original solve.
	Runtime time.Duration
	// Nodes is the total branch-and-bound node count of the original solve.
	Nodes int
	// LP echoes the original solve's simplex-level effort counters so
	// cached responses report the same stats as the solve that produced
	// them. Entries written before these counters existed decode as zero.
	LP pilp.LPStats
}

// size approximates the memory footprint of the entry for the LRU byte
// limit.
func (e Entry) size() int64 {
	return int64(len(e.Layout)) + int64(len(e.Circuit)) + entryOverhead
}

// entryOverhead charges each entry for its key, list element and bookkeeping
// so that many tiny entries still respect the byte limit.
const entryOverhead = 128

// Cache is the minimal store interface shared by all tiers. Implementations
// must be safe for concurrent use.
type Cache interface {
	// Get returns the entry stored under key, if any.
	Get(key string) (Entry, bool)
	// Put stores the entry under key, evicting older entries if needed.
	// Storage is best-effort: a tier may drop the entry (oversized, I/O
	// error) without failing the solve that produced it.
	Put(key string, e Entry)
}

// Stats reports cache effectiveness counters. Entries and Bytes describe the
// current footprint where the tier can measure it cheaply (zero otherwise).
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	// Corrupt counts entries that failed checksum or decode verification and
	// were quarantined (persistent tier only; always a miss, never bad data).
	Corrupt int64 `json:"corrupt"`
}

// StatsReader is implemented by tiers that report effectiveness counters;
// the serving front-end exposes them on GET /healthz.
type StatsReader interface {
	Stats() Stats
}
