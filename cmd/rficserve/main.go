// Command rficserve is the HTTP serving front-end of the layout generator:
// it accepts netlists over POST /v1/solve, runs them through a bounded
// admission queue feeding the batch engine, and returns layouts plus solve
// stats as JSON. A content-addressed result cache (in-memory LRU, optionally
// backed by a directory) serves repeated circuits without re-solving — the
// flow is deterministic, so cached layouts are byte-identical to fresh ones.
//
// The server is hardened along its failure domains: a panicking solve is
// isolated to its job (500 + the panics counter on /healthz, the process
// keeps serving), slow-client damage is bounded by the header/read/idle
// timeouts, SIGINT and SIGTERM both drain in-flight work before exit (with
// /readyz flipping to "draining" so load balancers stop routing here first),
// and the persistent cache tier checksums entries and quarantines corruption
// instead of serving it. Setting RFIC_FAULTS (point=prob[/budget] pairs, see
// internal/faultinject) with RFIC_FAULT_SEED arms deterministic fault
// injection inside the live process — staging chaos drills only; leave it
// unset in production.
//
// With -peers and -self, the process joins a multi-node serving tier
// (internal/cluster): a consistent-hash ring over the content address routes
// each solve to its owner node, non-owned requests forward there with bounded
// retries under a retry budget, an unreachable owner degrades to a local
// solve, and a deterministic sample of proxied results is re-solved locally
// and compared byte-for-byte (the cross-replica audit). Every node of the
// fleet must run the same -peers list and the same solve options, or content
// keys will not agree across nodes.
//
// Usage:
//
//	rficserve -addr :8080
//	rficserve -addr :8080 -workers 4 -queue 128 -cache-dir /var/cache/rfic
//	rficserve -addr :8080 -pprof-addr 127.0.0.1:6060
//	rficserve -addr :8080 -self a -peers 'a=http://10.0.0.1:8080,b=http://10.0.0.2:8080'
//	RFIC_FAULTS='cache.dir.read=0.1/4' RFIC_FAULT_SEED=42 rficserve -addr :8080
//
// Quick start:
//
//	curl -s -X POST --data-binary @testdata/twostage.rfic localhost:8080/v1/solve
//	curl -s -X POST --data-binary @c.rfic 'localhost:8080/v1/solve?timeout=30s'
//	curl -s -X POST --data-binary @c.rfic 'localhost:8080/v1/solve?async=1'
//	curl -s localhost:8080/v1/jobs/<id>
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/readyz
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"rficlayout/internal/cache"
	"rficlayout/internal/cluster"
	"rficlayout/internal/faultinject"
	"rficlayout/internal/pilp"
	"rficlayout/internal/server"
)

// armFaultsFromEnv enables the fault-injection registry when RFIC_FAULTS is
// set, so chaos drills run against the real binary with no special build.
func armFaultsFromEnv() error {
	spec := os.Getenv("RFIC_FAULTS")
	if spec == "" {
		return nil
	}
	plan, err := faultinject.ParsePlan(spec)
	if err != nil {
		return fmt.Errorf("RFIC_FAULTS: %w", err)
	}
	var seed int64
	if s := os.Getenv("RFIC_FAULT_SEED"); s != "" {
		seed, err = strconv.ParseInt(s, 10, 64)
		if err != nil {
			return fmt.Errorf("RFIC_FAULT_SEED: %w", err)
		}
	}
	faultinject.Enable(faultinject.New(plan, seed))
	log.Printf("rficserve: FAULT INJECTION ARMED: plan %s seed %d", plan.String(), seed)
	return nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "solver worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth; a full queue rejects with 503")
	maxSolveTime := flag.Duration("max-solve-time", 2*time.Minute, "hard per-job wall-clock ceiling")
	stripTime := flag.Duration("strip-time", 3*time.Second, "time limit per per-strip ILP solve")
	cacheEntries := flag.Int("cache-entries", cache.DefaultMaxEntries, "in-memory cache entry limit")
	cacheBytes := flag.Int64("cache-bytes", cache.DefaultMaxBytes, "in-memory cache byte limit")
	cacheDir := flag.String("cache-dir", "", "directory for the persistent cache tier (empty = memory only)")
	readHeaderTimeout := flag.Duration("read-header-timeout", 10*time.Second, "http.Server ReadHeaderTimeout: bound on slow-header clients")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout: bound on reading a whole request (netlists are small; slower means a stuck client)")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout: reap idle keep-alive connections")
	pprofAddr := flag.String("pprof-addr", "", "listen address for net/http/pprof diagnostics (empty = disabled); bind it to loopback — the profile endpoints are unauthenticated")
	peers := flag.String("peers", "", "static cluster membership as comma-separated [name=]url entries, this node included (empty = single node)")
	self := flag.String("self", "", "this node's peer name within -peers (required with -peers)")
	peerTimeout := flag.Duration("peer-timeout", 30*time.Second, "per-attempt timeout for forwarded solves; must cover the owner's solve time")
	peerRetries := flag.Int("peer-retries", 3, "max attempts per forwarded solve")
	peerRetryBudget := flag.Int("peer-retry-budget", 10, "retry budget tokens: fresh forwards earn 1/10 token each, every retry spends one")
	auditEvery := flag.Int("audit-every", 8, "re-solve 1 of every N proxied results locally and compare bytes (cross-replica audit; negative = disabled)")
	verbose := flag.Bool("v", false, "log solver progress")
	flag.Parse()

	// The pprof endpoints live on their own listener and mux, never on the
	// serving address: profiling stays reachable when the admission queue is
	// saturated, and the public API surface does not grow debug handlers.
	if *pprofAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("rficserve: pprof listening on %s", *pprofAddr)
			if err := http.ListenAndServe(*pprofAddr, mux); err != nil {
				log.Printf("rficserve: pprof server: %v", err)
			}
		}()
	}

	if err := armFaultsFromEnv(); err != nil {
		fmt.Fprintln(os.Stderr, "rficserve:", err)
		os.Exit(1)
	}

	var tier cache.Cache = cache.NewLRU(*cacheEntries, *cacheBytes)
	if *cacheDir != "" {
		disk, err := cache.NewDir(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rficserve:", err)
			os.Exit(1)
		}
		tier = cache.NewTiered(tier, disk)
	}

	cfg := server.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		MaxSolveTime: *maxSolveTime,
		SolveOptions: pilp.Options{StripTimeLimit: *stripTime},
		Cache:        tier,
	}
	if *verbose {
		cfg.Logf = log.Printf
	}
	if *peers != "" {
		peerList, err := cluster.ParsePeers(*peers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rficserve:", err)
			os.Exit(1)
		}
		found := false
		for _, p := range peerList {
			if p.Name == *self {
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "rficserve: -self %q does not name a -peers entry\n", *self)
			os.Exit(1)
		}
		cfg.Cluster = cluster.New(cluster.Config{
			Self:           *self,
			Peers:          peerList,
			AttemptTimeout: *peerTimeout,
			MaxAttempts:    *peerRetries,
			RetryBudget:    *peerRetryBudget,
			AuditEvery:     *auditEvery,
		})
		names := make([]string, len(peerList))
		for i, p := range peerList {
			names[i] = p.Name
		}
		log.Printf("rficserve: cluster member %q of %v", *self, names)
	}
	srv := server.New(cfg)
	defer srv.Close()

	// The solve timeouts live in the engine (MaxSolveTime), so the HTTP
	// timeouts only have to bound client misbehaviour, not solve time:
	// WriteTimeout stays unset because a sync solve legitimately holds the
	// response open for up to MaxSolveTime.
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: *readHeaderTimeout,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	// SIGTERM is what init systems and orchestrators send first; treat it
	// exactly like Ctrl-C and drain before exiting.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// Flip /readyz to draining first so load balancers (and peers) stop
		// routing new work here, then let in-flight requests finish.
		srv.StartDraining()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	log.Printf("rficserve: listening on %s (workers=%d queue=%d)", *addr, cfg.Workers, *queue)
	if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		fmt.Fprintln(os.Stderr, "rficserve:", err)
		os.Exit(1)
	}
	log.Printf("rficserve: shut down cleanly")
}
