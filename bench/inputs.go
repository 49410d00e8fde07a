package main

import (
	"fmt"
	"math/rand"
	"time"

	"rficlayout/internal/cache"
	"rficlayout/internal/circuits"
	"rficlayout/internal/circuits/fuzz"
	"rficlayout/internal/cluster"
	"rficlayout/internal/geom"
	"rficlayout/internal/netlist"
	"rficlayout/internal/pilp"
)

// Every workload lays out a fixed set of circuits. The seed permutes the
// declaration order inside each netlist and the order in which work is
// issued; the flow and the content key normalize declaration order away, so
// the layouts, their golden digests and the work done are the same for every
// seed. Varying the circuits themselves with the seed is what the benchmark
// cannot afford: the Table 1 batch took 17.6 s to 61.5 s over five
// circuits.Spec.Seed offsets, far beyond any bound a regression check can use.

// table1Options is the Table 1 preset. Node budgets bound every
// branch-and-bound search and the wall-clock limits sit far above any solve
// here, so no limit binds and every layout is deterministic.
func table1Options() pilp.Options {
	return pilp.Options{
		ChainPoints:         3,
		MaxChainPoints:      3,
		MaxRefineIterations: -1,
		StripNodeLimit:      25,
		Phase1NodeLimit:     200,
		Workers:             2,
		StripTimeLimit:      10 * time.Minute,
		PhaseTimeLimit:      10 * time.Minute,
	}
}

// refineOptions adds one phase-3 refinement round to the Table 1 preset.
func refineOptions() pilp.Options {
	o := table1Options()
	o.MaxRefineIterations = 1
	return o
}

// serveOptions is the base solve configuration of every serving node.
func serveOptions() pilp.Options {
	return pilp.Options{
		ChainPoints:         2,
		MaxChainPoints:      3,
		MaxRefineIterations: -1,
		StripNodeLimit:      25,
		StripTimeLimit:      10 * time.Minute,
		PhaseTimeLimit:      10 * time.Minute,
	}
}

const (
	// The serve-novel corpus is fuzz seeds novelBase up to novelBase +
	// novelCount - 1: one profile period, so every generator profile once.
	novelBase  = 1
	novelCount = fuzz.ProfilePeriod
	// batchWarmSeed is the fuzz circuit a batch set-up solves before timing
	// starts, and the serveWarmCount seeds below it are those a serve-novel
	// set-up solves; no workload measures them.
	batchWarmSeed  = 0
	serveWarmCount = 4

	// The serve-mix request multiset, 808 requests: poolSize warm circuits
	// repeated poolRepeats times each (92%), perturbedCount one-strip
	// perturbations of pool circuits (5%) and freshCount circuits outside the
	// pool (3%). The solves among them, with the audit's re-solves, take most
	// of a run, and the count keeps each run near half a minute. Pool
	// circuits have at most poolMaxStrips strips, which keeps each of a run's
	// cold set-ups, solving the whole pool, to two or three seconds.
	poolBase       = 2001
	poolSize       = 24
	poolMaxStrips  = 6
	poolRepeats    = 31
	perturbedCount = 40
	freshBase      = 3001
	freshCount     = 24

	// auditEvery is rficserve's default cross-replica audit sample rate.
	auditEvery = 8
)

// item is one circuit of a batch workload. Its label keys the golden digests
// and never depends on the seed.
type item struct {
	label   string
	circuit *netlist.Circuit
}

// request is one solve request of a serving workload.
type request struct {
	label   string
	key     string // content address the server derives from body
	body    []byte
	circuit *netlist.Circuit
}

// permute shuffles the declaration order of devices, pins and microstrips.
func permute(c *netlist.Circuit, rng *rand.Rand) *netlist.Circuit {
	rng.Shuffle(len(c.Devices), func(i, j int) { c.Devices[i], c.Devices[j] = c.Devices[j], c.Devices[i] })
	for _, d := range c.Devices {
		rng.Shuffle(len(d.Pins), func(i, j int) { d.Pins[i], d.Pins[j] = d.Pins[j], d.Pins[i] })
	}
	rng.Shuffle(len(c.Microstrips), func(i, j int) {
		c.Microstrips[i], c.Microstrips[j] = c.Microstrips[j], c.Microstrips[i]
	})
	return c
}

func newRequest(label string, c *netlist.Circuit, rng *rand.Rand) request {
	permute(c, rng)
	return request{label: label, key: cache.Key(c, serveOptions()), body: []byte(netlist.Format(c)), circuit: c}
}

func fuzzCircuit(seed int64) *netlist.Circuit {
	c, _ := fuzz.Generate(seed)
	return c
}

// table1Items are the six Table 1 cells: three circuits at areas A and B.
func table1Items(rng *rand.Rand) []item {
	var items []item
	for _, s := range circuits.Table1() {
		items = append(items,
			item{s.Name + "/A", permute(circuits.Build(s), rng)},
			item{s.Name + "/B", permute(circuits.BuildSmallArea(s), rng)})
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// refineItems is buffer60 at area A, the refinement workload's one job.
func refineItems(rng *rand.Rand) []item {
	s, err := circuits.BySpecName("buffer60")
	if err != nil {
		panic(err) // a Table 1 name
	}
	return []item{{s.Name + "/A", permute(circuits.Build(s), rng)}}
}

// novelRequests is the serve-novel corpus in a seeded order.
func novelRequests(rng *rand.Rand) []request {
	var reqs []request
	for seed := int64(novelBase); seed < novelBase+novelCount; seed++ {
		reqs = append(reqs, newRequest(fmt.Sprintf("novel/%d", seed), fuzzCircuit(seed), rng))
	}
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	return reqs
}

// warmRequests are the circuits a serve-novel set-up solves, outside the
// corpus.
func warmRequests(rng *rand.Rand) []request {
	var reqs []request
	for seed := int64(batchWarmSeed - 1); seed >= batchWarmSeed-serveWarmCount; seed-- {
		reqs = append(reqs, newRequest(fmt.Sprintf("warm/%d", seed), fuzzCircuit(seed), rng))
	}
	return reqs
}

// mixRequests returns the serve-mix warm pool and its measured sequence.
//
// The pool is picked by scanning fuzz seeds from poolBase for circuits of at
// most poolMaxStrips strips: half of it owned by each node, and exactly one
// b-owned key in the audit sample. Node a
// re-solves every proxied response of a sampled key, so the number of sampled
// pool keys sets the audit load on the hit path; pinning it to one keeps that
// load the same in every run while leaving the audit's tail visible.
func mixRequests(rng *rand.Rand) (pool, seq []request) {
	ring := cluster.New(cluster.Config{Self: "a", Peers: []cluster.Peer{{Name: "a"}, {Name: "b"}}})
	quota := map[string]int{"a": poolSize / 2, "b": poolSize/2 - 1, "b-audited": 1}
	var poolSeeds []int64
	for seed := int64(poolBase); len(pool) < poolSize; seed++ {
		c := fuzzCircuit(seed)
		if len(c.Microstrips) > poolMaxStrips {
			continue
		}
		key := cache.Key(c, serveOptions())
		owner, _ := ring.Owner(key)
		class := owner.Name
		if class == "b" && cluster.AuditSampled(key, auditEvery) {
			class = "b-audited"
		}
		if quota[class] == 0 {
			continue
		}
		quota[class]--
		poolSeeds = append(poolSeeds, seed)
		pool = append(pool, newRequest(fmt.Sprintf("pool/%d", seed), c, rng))
	}

	for _, r := range pool {
		for i := 0; i < poolRepeats; i++ {
			seq = append(seq, r)
		}
	}
	for i := 0; i < perturbedCount; i++ {
		seed := poolSeeds[i%poolSize]
		c := fuzzCircuit(seed)
		ms := c.Microstrips[(i*7)%len(c.Microstrips)]
		d := 1 + (i+i/poolSize)%4 // distinct from the variant poolSize steps back
		ms.TargetLength += geom.Coord(d) * geom.Micron
		seq = append(seq, newRequest(fmt.Sprintf("perturbed/%d/%s/+%dum", seed, ms.Name, d), c, rng))
	}
	for seed := int64(freshBase); seed < freshBase+freshCount; seed++ {
		seq = append(seq, newRequest(fmt.Sprintf("fresh/%d", seed), fuzzCircuit(seed), rng))
	}
	rng.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	return pool, seq
}
