package main

import (
	"fmt"
	"strings"

	"dynp2p"
)

// phase is one segment of a workload's timeline. Arrivals are open loop:
// each round draws Poisson(rate) stores and retrievals regardless of how
// the network is coping.
type phase struct {
	units        int     // length in walk-length units T = Θ(log n)
	storeRate    float64 // store arrivals per round
	retrieveRate float64 // retrieval arrivals per round
	// cache, when non-nil, reconfigures hot-key caching at phase start.
	cache *dynp2p.CacheConfig
}

// workload is one traffic mix the benchmark runs. The timeline is
// warm-up (set-up, untimed as throughput), the phases, then a drain of one
// search TTL with no new arrivals, so every retrieval resolves.
type workload struct {
	name string
	// trials is how many independent networks (trial seeds derived from
	// the run seed) one set of the run simulates.
	trials int
	keys   int     // key universe; stores take keys in order until exhausted
	zipfS  float64 // Zipf exponent of retrieval key popularity
	// cfg is the network configuration; a trial fills in Seed, Workers,
	// Shards and Profile.
	cfg    dynp2p.Config
	phases []phase
}

// shards pins the slot-shard grid so a seed reproduces bit-identically on
// hosts with any core count.
const shards = 8

var workloads = []workload{
	// The paper's own regime: soup and inquiry traffic dominate; the
	// router, cache, repair and fault paths are idle.
	{
		name:   "steady-oracle",
		trials: 3, keys: 16, zipfS: 0.9,
		cfg: dynp2p.Config{N: 4096, ChurnRate: 0.5},
		phases: []phase{
			{units: 3, storeRate: 0.5, retrieveRate: 0.2}, // seed
			{units: 8, retrieveRate: 1.5},                 // serve
		},
	},
	// The only mix where the hop-by-hop router dominates and the hot-key
	// cache serves reads. Churn is C=0.25, not the paper-law 0.5: at
	// n=256 and C=0.5 the hottest key is lost in about one network in
	// seven, and searches for it then flood the overlay for a whole TTL
	// (see LEDGER.md).
	{
		name:   "hot-overlay",
		trials: 3, keys: 8, zipfS: 3.0,
		cfg: dynp2p.Config{
			N: 256, ChurnRate: 0.25,
			Routing: dynp2p.RoutingConfig{Mode: dynp2p.RoutingOverlay},
		},
		phases: []phase{
			{units: 3, storeRate: 0.5},   // seed
			{units: 4, retrieveRate: 10}, // crowd, cold
			{units: 4, retrieveRate: 10, // crowd, cached
				cache: &dynp2p.CacheConfig{Capacity: 8, SeedRate: 1}},
		},
	},
	// Writes and maintenance beside reads: committee handovers, IDA
	// pieces, overlay repair and the fault-delay delivery path.
	{
		name:   "store-heal-lossy",
		trials: 5, keys: 96, zipfS: 0.9,
		cfg: dynp2p.Config{
			N: 2048, ChurnRate: 0.5, ErasureK: 4,
			Edges: dynp2p.EdgesSelfHealing,
			Fault: dynp2p.FaultConfig{DropProb: 0.05, DelayProb: 0.15, MaxDelay: 2},
		},
		phases: []phase{
			{units: 8, storeRate: 1, retrieveRate: 1.5},
		},
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}
