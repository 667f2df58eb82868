package dynp2p

import (
	"bytes"
	"cmp"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"dynp2p/internal/rng"
	"dynp2p/internal/walks"
)

func TestFacadeStoreRetrieve(t *testing.T) {
	nw := New(Config{N: 256, ChurnRate: 0.5, ChurnDelta: 1.0, Seed: 7})
	nw.Run(nw.WarmupRounds())
	data := make([]byte, 100)
	rng.New(1).Fill(data)
	nw.Store(0, 42, data)
	nw.Run(nw.Tunables().Protocol.Period)
	if nw.CopyCount(42) == 0 {
		t.Fatal("item not stored")
	}
	if nw.LandmarkCount(42) == 0 {
		t.Fatal("no landmarks")
	}
	nw.Retrieve(128, 42, data)
	nw.Run(nw.Tunables().Protocol.SearchTTL + 5)
	res := nw.Results()
	if len(res) != 1 || !res[0].Success {
		t.Fatalf("retrieval failed: %+v", res)
	}
}

func TestFacadeErasureMode(t *testing.T) {
	nw := New(Config{N: 256, Seed: 9, ErasureK: 6})
	nw.Run(nw.WarmupRounds())
	data := bytes.Repeat([]byte("abc"), 100)
	nw.Store(3, 5, data)
	nw.Run(nw.Tunables().Protocol.Period + 10)
	nw.Retrieve(99, 5, data)
	nw.Run(nw.Tunables().Protocol.SearchTTL + 5)
	res := nw.Results()
	if len(res) != 1 || !res[0].Success {
		t.Fatalf("erasure retrieval failed: %+v", res)
	}
	if res[0].Bytes != len(data) {
		t.Fatalf("got %d bytes, want %d", res[0].Bytes, len(data))
	}
}

// TestParallelism pins the worker cap: one worker per 256 slots, at most
// the configured bound (0 = GOMAXPROCS), never fewer than one.
func TestParallelism(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, c := range []struct{ workers, n, want int }{
		{2, 8, 1}, {2, 256, 1}, {3, 511, 1}, {3, 512, 2}, {3, 1024, 3},
		{2, 2048, 2}, {1, 4096, 1}, {0, 256, 1}, {0, 1 << 20, procs},
	} {
		if got := parallelism(c.workers, c.n); got != c.want {
			t.Errorf("parallelism(%d, %d) = %d, want %d", c.workers, c.n, got, c.want)
		}
	}
	if got := New(Config{N: 256, Workers: 4}).Engine().Workers(); got != 1 {
		t.Errorf("n=256 network runs %d workers, want 1", got)
	}
}

func TestFacadeDeterminism(t *testing.T) {
	run := func() (Stats, int) {
		nw := New(Config{N: 128, ChurnRate: 1, Seed: 3, Workers: 3})
		nw.Run(30)
		return nw.Stats(), nw.Round()
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 || r1 != r2 {
		t.Fatalf("same config produced different stats:\n%+v\n%+v", s1, s2)
	}
}

// TestWorkerCountIndependence is the facade-level regression net for the
// engine's sort-free canonical ordering: on a faulty, churning 2048-node
// network running the full protocol stack, the engine metrics, every
// retrieval result, and the walk soup's per-slot sample sets must be
// bit-identical for Workers ∈ {1, 3, GOMAXPROCS}. The caching leg
// additionally exercises hot-key replica placement, cascade seeding,
// and LRU eviction — all of whose counters ride in Stats — under the
// same worker sweep.
// TestResultsCanonicalOrder: Results lists completions in canonical
// (Done, Searcher, Key, Start) order, not in the order the handler's
// workers finished. A batch of searchers that already hold the item in
// their own cache re-issue it together, so dozens of retrievals complete
// in the same round across every shard; the lists must be equal element
// by element at any worker count.
func TestResultsCanonicalOrder(t *testing.T) {
	const searchers = 48
	run := func(workers int) []Result {
		nw := New(Config{N: 512, Seed: 13, Workers: workers, Cache: CacheConfig{Capacity: 2}})
		nw.Run(nw.WarmupRounds())
		data := make([]byte, 32)
		rng.New(6).Fill(data)
		nw.Store(0, 3, data)
		nw.Run(nw.Tunables().Protocol.Period)
		for i := 1; i <= searchers; i++ {
			nw.Retrieve(i*10, 3, data)
		}
		nw.Run(nw.Tunables().Protocol.SearchTTL + 4)
		res := nw.Results()
		for i := 1; i <= searchers; i++ {
			nw.Retrieve(i*10, 3, data)
		}
		nw.Run(2)
		return append(res, nw.Results()...)
	}
	base := run(1)
	if !slices.IsSortedFunc(base, func(a, b Result) int {
		return cmp.Or(cmp.Compare(a.Done, b.Done), cmp.Compare(a.Searcher, b.Searcher),
			cmp.Compare(a.Key, b.Key), cmp.Compare(a.Start, b.Start))
	}) {
		t.Fatalf("results not in canonical order: %+v", base)
	}
	sameRound := map[int]int{}
	most := 0
	for _, r := range base {
		sameRound[r.Done]++
		most = max(most, sameRound[r.Done])
	}
	if most < searchers/2 {
		t.Fatalf("at most %d retrievals completed in one round, want >= %d", most, searchers/2)
	}
	for _, w := range []int{3, runtime.GOMAXPROCS(0)} {
		if got := run(w); !reflect.DeepEqual(base, got) {
			t.Errorf("workers=%d: results differ:\n%+v\n%+v", w, base, got)
		}
	}
}

func TestWorkerCountIndependence(t *testing.T) {
	type snapshot struct {
		stats   Stats
		results []Result
		samples [][]walks.Sample // per slot, last round's completed walks
	}
	run := func(workers int, cache CacheConfig) snapshot {
		nw := New(Config{
			N: 2048, ChurnRate: 1, ChurnDelta: 1.0, Seed: 5, Workers: workers,
			Fault: FaultConfig{DropProb: 0.03, DelayProb: 0.1, MaxDelay: 2},
			Cache: cache,
		})
		nw.Run(nw.WarmupRounds())
		data := make([]byte, 48)
		rng.New(4).Fill(data)
		nw.Store(0, 7, data)
		nw.Run(nw.Tunables().Protocol.Period)
		nw.Retrieve(1024, 7, data)
		nw.Retrieve(99, 7, data)
		nw.Run(nw.Tunables().Protocol.SearchTTL + 4)
		// A third retrieval after the first two completed: with caching
		// on it exercises serve/admit paths against a warm population.
		nw.Retrieve(555, 7, data)
		nw.Run(nw.Tunables().Protocol.SearchTTL + 4)
		snap := snapshot{stats: nw.Stats(), results: nw.Results()}
		for s := 0; s < nw.N(); s++ {
			snap.samples = append(snap.samples,
				append([]walks.Sample(nil), nw.Soup().Samples(s)...))
		}
		return snap
	}
	for _, leg := range []struct {
		name  string
		cache CacheConfig
	}{
		{"cache-off", CacheConfig{}},
		{"cache-on", CacheConfig{Capacity: 2, SeedRate: 0.7}},
	} {
		t.Run(leg.name, func(t *testing.T) {
			base := run(1, leg.cache)
			if leg.cache.Capacity > 0 && base.stats.Proto.CacheInserts == 0 {
				t.Error("caching leg produced no cache activity")
			}
			for _, w := range []int{3, runtime.GOMAXPROCS(0)} {
				got := run(w, leg.cache)
				if base.stats != got.stats {
					t.Errorf("workers=%d: stats differ:\n%+v\n%+v", w, base.stats, got.stats)
				}
				if !reflect.DeepEqual(base.results, got.results) {
					t.Errorf("workers=%d: retrieval results differ:\n%+v\n%+v", w, base.results, got.results)
				}
				for s := range base.samples {
					if !reflect.DeepEqual(base.samples[s], got.samples[s]) {
						t.Fatalf("workers=%d: soup samples differ at slot %d", w, s)
					}
				}
			}
		})
	}
}

func TestFacadeDefaults(t *testing.T) {
	nw := New(Config{N: 64, Seed: 1})
	tun := nw.Tunables()
	if tun.Protocol.CommitteeSize < 4 {
		t.Fatal("committee size default too small")
	}
	if tun.Walks.WalkLength < 4 {
		t.Fatal("walk length default too small")
	}
	if nw.N() != 64 {
		t.Fatal("N accessor wrong")
	}
	if !nw.IsLive(nw.IDAt(0)) {
		t.Fatal("initial occupant should be live")
	}
}

func TestFacadeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("tiny N did not panic")
		}
	}()
	New(Config{N: 2})
}

func TestFacadeChurnStrategies(t *testing.T) {
	for _, s := range []Strategy{Uniform, OldestFirst, YoungestFirst, SweepBurst} {
		nw := New(Config{N: 64, ChurnRate: 1, Strategy: s, Seed: 11})
		nw.Run(20)
		if nw.Stats().Engine.Replacements == 0 {
			t.Fatalf("strategy %v produced no churn", s)
		}
	}
}
