// Command rficlayout-bench is a thin wrapper so the repository root builds as
// a package. The measurements live elsewhere: the benchmark (Table 1,
// refinement and serving workloads with per-layer traces and layout goldens)
// runs with "bash bench/run.sh", cmd/rficbench regenerates the paper's
// Table 1, Figure 7 and Figure 11 artifacts, and the seeded fuzz sweep
// through the metamorphic audit battery is TestSweep in internal/audit.
// Running this binary just points at those entry points.
//
// # Architecture
//
// The solver stack is layered, every layer context-aware and deterministic:
//
//	cmd/rficserve                HTTP serving front-end: POST /v1/solve,
//	                             GET /v1/jobs/{id}, GET /healthz, GET /readyz;
//	                             -peers/-self joins the multi-node tier
//	cmd/rficgen, cmd/rficbench   CLI front-ends (-parallel, -cache, Ctrl-C
//	                             cancels)
//	internal/cluster             multi-node serving tier: consistent-hash ring
//	                             over the content address routes each solve to
//	                             its owner node; retrying peer client with
//	                             per-attempt timeouts, deterministic jittered
//	                             backoff and a retry budget; degraded local
//	                             fallback when the owner is unreachable; a
//	                             deterministic sample of proxied results is
//	                             re-solved locally and byte-compared (the
//	                             cross-replica audit)
//	internal/server              admission queue + worker pool over the
//	                             engine; per-request deadlines, JSON results;
//	                             forwards remote-owned requests via the
//	                             cluster layer (X-Rfic-Forwarded-From marks a
//	                             peer hop and pins the solve local — one hop,
//	                             never a forwarding loop)
//	internal/cache               content-addressed result cache (canonical
//	                             circuit hash → layout); LRU memory tier +
//	                             persistent directory tier
//	internal/engine              batch API: many circuits on a worker pool,
//	                             per-job isolation and per-job stats
//	                             (engine.Run)
//	internal/pilp                progressive ILP flow of the paper (Section 5):
//	                             construct → global adjust → per-strip exact
//	                             lengths → refinement; independent per-strip
//	                             subproblems run concurrently; the phase-1
//	                             adjustment is one global LP (no binaries);
//	                             the phases run from one list (step, snapshot
//	                             label, log format); phases 2 and 3 share one
//	                             candidate pass (solve against a frozen base,
//	                             graft in a fixed order); a per-flow memo
//	                             answers repeated identical solves
//	internal/ilpmodel            builds the layout MILP (device placement,
//	                             chain-point routing, non-overlap, Eq. 1–28)
//	                             as a restricted model around a complete
//	                             layout: named strips and non-pad devices
//	                             free, every other object fixed; pads never
//	                             free; two forms, the exact per-strip ILP and
//	                             the phase-1 Global form (soft lengths,
//	                             penalized overlap, topology and relative
//	                             positions from the layout, no binaries);
//	                             non-overlap pairs skip exactly what
//	                             layout.SpacingExempt exempts; a free
//	                             strip's chain points come from
//	                             DefaultChainPoints or its route in Fixed
//	internal/layout              layouts, the design-rule check and export;
//	                             owns the spacing rule (layout.Shape,
//	                             SpacingExempt), which the check and the
//	                             layout MILP share
//	internal/milp                a 0-1 layer over lp.Problem: the model
//	                             builder writes the Problem the search
//	                             solves; sequential branch-and-bound over its
//	                             0-1 columns, dive heuristic; child nodes
//	                             warm-start the dual simplex from the parent
//	                             basis and fall back to a cold solve when the
//	                             basis is incompatible
//	internal/lp                  bounded-variable primal + dual simplex. One
//	                             driver (Dantzig pricing with a Bland
//	                             anti-cycling fallback, ratio tests, phases,
//	                             lexicographic canonicalization, whose scan
//	                             remembers the columns it rejected and skips
//	                             them until a pivot touches them) over a sparse
//	                             revised core: A in compressed sparse columns,
//	                             B⁻¹ as an LU-style eta file that stores no
//	                             +1 unit-column eta and no diagonal twice —
//	                             refactorized every RefactorEvery pivots or
//	                             on drift, product-form update etas between,
//	                             FTRAN/BTRAN solves for columns, rows and
//	                             pricing. The tests check it against a dense
//	                             tableau oracle. Bases are exportable for warm
//	                             starts and carry their final factorization,
//	                             which a warm solve of the same problem adopts
//	                             instead of rebuilding; warm and cold solves
//	                             return the byte-identical canonical vertex
//	internal/faultinject         seeded deterministic fault-injection registry
//	                             (named points, per-point probability/budget);
//	                             a fixed seed replays the identical fault
//	                             schedule, a disabled registry costs one
//	                             atomic load per injection point
//
// Cancellation flows top-down: every solve layer has one entry point, and it
// takes a context (engine.Run, pilp.GenerateCtx, ilpmodel.SolveAndExtractCtx,
// milp.SolveCtx, lp.SolveCtx). The only duration settings are pilp's
// StripTimeLimit and PhaseTimeLimit, which the flow turns into per-solve
// deadlines under its own context, so an enclosing context can always cancel
// earlier. The LP checks its context while pivoting and before every move
// of the canonicalization pass, so no solve outlives its deadline by more
// than one pivot or one move. The server front-end maps per-request timeouts
// onto the same mechanism.
//
// Solver effort travels as one record. The pilp flow folds every MILP solve
// of a run into one tally and returns the totals as pilp.Effort (node count
// plus milp.LPStats), which engine.Result and cache.Entry embed whole. The
// tally also memoises each solve's result by model digest and node budget,
// so a flow that rebuilds a model it has solved pays no second search;
// Effort.Reused counts those repeats and stays in process.
// milp.LPStats carries the JSON tags of its one wire form, encoded by both
// the cache's Dir entries and the server's "lp" stats object, so an LP
// counter added there reaches every layer and the wire with no other edit.
//
// # Determinism contract
//
// Parallelism never changes results, only wall-clock time. The milp search
// is a sequential branch-and-bound over 0-1 models: it dequeues nodes in
// fixed-size batches and solves and decides them one at a time, in batch
// order, so its Result is a function of the model and the options. The
// parallelism lives one layer up. The pilp flow solves
// per-strip subproblems against a frozen snapshot of the layout and merges
// them in a fixed order. Consequently the same circuit yields byte-identical layouts for every
// worker count — the property the engine relies on to scale batches across
// cores. Model construction is deterministic too: constraint emission walks
// circuit declaration order, never Go map order, because on a degenerate
// optimum the simplex pivot sequence decides which vertex — and therefore
// which layout — comes back. On top of that, internal/lp canonicalizes
// every optimal solution to the lexicographically smallest vertex of its
// optimal face, so the reported X is independent of the pivot path
// entirely: warm-started and cold-started solves return the byte-identical
// layout. The one caveat: a binding time limit
// (or cancellation) interrupts the search at a timing-dependent point, so
// only runs whose limits do not bind are comparable —
// pilp.Options.StripNodeLimit offers a deterministic node budget as the
// path-independent alternative for workloads whose strip solves would
// otherwise hit the clock.
//
// Determinism is also what makes results exactly cacheable: internal/cache
// addresses a solve by the SHA-256 of the canonical circuit text
// (netlist.Canonical) plus the output-relevant solve options
// (pilp.Options.Fingerprint), so a cache hit is byte-identical to
// re-solving. rficgen -cache DIR and rficserve both sit behind this cache.
//
// # Failure domains
//
// Failures are contained at the job boundary and degrade quality before
// availability:
//
//   - Panic isolation. A panic anywhere inside a solve — the pilp flow, the
//     shared worker pool, a solver bug — is recovered by engine.Run (and by
//     a second firewall in server.runJob) into a per-job *engine.PanicError
//     carrying the panic value and goroutine stack. The job fails with a
//     500; the process, its queue and its neighbours keep running. The
//     `panics` counter on /healthz counts every recovered panic.
//   - Anytime degradation. When a deadline or cancellation fires mid-flow,
//     a request that opted in with accept_partial=1 receives the best
//     layout reached so far, marked `partial` with the phase reached and
//     bound-gap stats (pilp Result.PartialPhase/MaxGap/InterruptedSolves),
//     instead of an error. Partial results are never cached, and
//     AcceptPartial is excluded from the cache fingerprint: a run that
//     completes is byte-identical with the flag on or off.
//   - Self-healing cache. The persistent tier records a SHA-256 per entry
//     at write and verifies it at read; a mismatch (bit rot, torn write)
//     quarantines the file aside as <key>.json.corrupt, counts it in the
//     `corrupt` stat on /healthz, and misses so the flow re-solves — the
//     next Put heals the entry. Transient read errors get a bounded
//     deterministic retry.
//   - Bounded intake. SIGINT/SIGTERM drain in-flight solves before exit
//     (GET /readyz flips to "draining" first so load balancers and peers
//     stop routing here), rficserve bounds slow clients with
//     header/read/idle timeouts, and every 503 carries a Retry-After hint.
//   - Peer degradation. In the multi-node tier an unreachable owner never
//     takes requests down with it: after bounded retries under a retry
//     budget (a token bucket that keeps retry traffic a fraction of fresh
//     traffic, so a dead peer cannot trigger a retry storm), the node
//     solves locally — determinism makes the fallback result byte-identical
//     to the owner's — and counts it in `degraded` on /healthz. Degraded
//     and remote-owned results stay out of the local cache (cache
//     affinity), and the cross-replica audit re-solves a deterministic
//     sample of proxied results locally, alarming on `audit_mismatch` if
//     any byte ever differs across replicas.
//
// All of it is testable because faults are deterministic too:
// internal/faultinject threads named injection points through the cache
// tier (read/write/rename errors, torn writes), the conc pool (panics,
// delays), engine job execution and the server admission queue. A seeded
// plan fires an identical fault schedule every run, so the chaos battery
// (TestChaosScheduleSurvival in internal/server) can assert exact
// accounting: every /healthz counter reconciles against the fired-fault
// counts, the layouts are byte-identical to a fault-free run, and a replay
// at the same seed reproduces the request log and fault schedule exactly.
// The same registry covers the cluster layer
// (cluster.dial/cluster.forward/cluster.body), so the two-node battery
// (TestClusterChaosScheduleSurvival) proves the forwarding,
// degraded-fallback and audit paths under the same exact-accounting
// standard. rficserve arms the registry from RFIC_FAULTS/RFIC_FAULT_SEED for
// staging drills.
//
// # Serving quick start
//
// Start the HTTP front-end and solve the checked-in example circuit:
//
//	go run ./cmd/rficserve -addr :8080 &
//	curl -s -X POST --data-binary @testdata/twostage.rfic localhost:8080/v1/solve
//
// The response carries the layout text, solve stats (wall-clock, explored
// branch-and-bound nodes, wirelength, bends, DRC violations) and whether the
// result came from the cache. Useful variants:
//
//	curl -s -X POST --data-binary @c.rfic 'localhost:8080/v1/solve?timeout=30s'
//	curl -s -X POST --data-binary @c.rfic 'localhost:8080/v1/solve?async=1'
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -s localhost:8080/healthz
//
// Admission control is explicit: a full queue answers 503 immediately, a
// per-request timeout that expires answers 504, and repeating a request
// (even with reordered netlist declarations) answers from the cache without
// touching the solver. Concurrent identical requests are coalesced by a
// singleflight layer — one solve runs, every waiter shares its result —
// and GET /healthz reports the coalescing counter plus the cache tier's
// hit/miss/eviction/footprint stats.
package main

import "fmt"

func main() {
	fmt.Println("rficlayout: run 'bash bench/run.sh' for the benchmark,")
	fmt.Println("'go run ./cmd/rficbench' for the paper's tables and figures,")
	fmt.Println("or use the other tools under cmd/ (rficgen, rficserve).")
}
