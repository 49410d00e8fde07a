// Package audit runs a metamorphic test battery over the progressive ILP
// layout flow. Each check transforms the input circuit in a way whose effect
// on the output is predictable, solves the transformed circuit, and verifies
// the predicted relation. The determinism contract (worker counts and warm
// starts never change results; node budgets cut searches at
// path-independent points) is what turns most relations into byte-equality
// checks; the rest compare on the flow's own score and design-rule metrics
// within stated envelopes.
//
// # Architecture
//
// Three layers, composed by the fuzz harness (rficbench -fuzz):
//
//   - transform.go — structure-preserving circuit transformations, each
//     returning a deep copy: declaration reordering, order-preserving
//     renaming, integer unit rescaling, pin-geometry mirroring.
//   - audit.go — the battery (Run): one base solve, then per-check
//     transformed solves compared against it. Byte-exact checks: reorder,
//     rename (geometry under the name mapping), warm-vs-cold LP, worker
//     counts. Envelope checks: rescale (metrics must rescale with the unit,
//     within integer-rounding slack), mirror and rotate (involution
//     byte-exact, score inside a wide chirality-collapse envelope).
//   - minimize.go — a greedy failing-circuit minimizer: remove one strip or
//     disconnected device at a time, keep removals after which the circuit
//     still validates and the failure predicate still fires, iterate to a
//     fixpoint, and write the result as a committable .rfic fixture
//     (testdata/fuzzmin.rfic is one such output, pinned by a test).
//
// The split between exact and envelope checks is deliberate: the flow is a
// deterministic function of (circuit, options), so transformations that
// preserve the solver's tie-break order (reorder, order-preserving rename)
// or that the contract covers outright (warm starts, workers) must reproduce
// layouts byte for byte, and any drift is a bug. Rescaling and mirroring
// change the heuristic's arithmetic (integer divisions, coordinate-ordered
// tie-breaks), so for them only bounded quality relations are sound — the
// envelopes are tuned to observed behavior and guard against collapse, and
// their calibration doubles as a record of a real finding (chirality
// sensitivity).
//
// The battery is the instrument behind rficbench -fuzz:
// internal/circuits/fuzz generates seeded circuits across RF topology space
// (same seed, byte-identical netlist.Canonical), every circuit runs through
// Run under deterministic node budgets (DefaultSolveOptions), results stream
// as wall-clock-free JSONL (replays compare byte-identical), and failures
// shrink through Minimize into fixtures CI uploads as artifacts.
package audit
