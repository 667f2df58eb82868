package protocol

import (
	"testing"

	"dynp2p/internal/churn"
)

// cacheSim builds a no-churn sim with the hot-key cache enabled and one
// stored item, settled enough for retrievals to work.
func cacheSim(t *testing.T, n int, ttl int) (*sim, uint64, []byte) {
	t.Helper()
	s := newSim(t, n, churn.ZeroLaw{}, 0, 9)
	s.h.SetCache(4, ttl, 1)
	s.warm()
	key := uint64(42)
	data := itemBytes(key, 96)
	s.h.RequestStore(s.e, 0, key, data)
	s.run(s.h.P.Period)
	return s, key, data
}

// retrieve runs one retrieval from slot to completion and returns its
// result.
func retrieve(t *testing.T, s *sim, slot int, key uint64, want []byte) SearchResult {
	t.Helper()
	s.h.RequestRetrieve(s.e, slot, key, want)
	return s.awaitResult(t)
}

// TestCacheOwnHitShortCircuits: a node that completed a retrieval holds
// the bytes at depth 0, so its next retrieval of the same key resolves
// from its own cache in the same tick — no committee, no landmarks.
func TestCacheOwnHitShortCircuits(t *testing.T) {
	s, key, data := cacheSim(t, 256, 0)
	first := retrieve(t, s, 100, key, data)
	if !first.Success {
		t.Fatalf("first retrieval failed: %+v", first)
	}
	if !s.h.CachedAt(100, key, s.e.Round()) {
		t.Fatal("completer did not cache the item")
	}
	before := s.h.Counters().CacheHits
	second := retrieve(t, s, 100, key, data)
	if !second.Success || !second.Cached {
		t.Fatalf("second retrieval not cache-served: %+v", second)
	}
	if second.Done != second.Start {
		t.Fatalf("own-cache hit took %d rounds, want 0", second.Done-second.Start)
	}
	if got := s.h.Counters().CacheHits; got != before+1 {
		t.Fatalf("cache hits %d, want %d", got, before+1)
	}
}

// TestCacheReplacedSlotNeverServed: churn invalidation. OnJoin clears
// the replaced slot's cache region, so a newcomer inherits nothing and
// can neither self-serve nor answer inquiries from the departed node's
// entries.
func TestCacheReplacedSlotNeverServed(t *testing.T) {
	s, key, data := cacheSim(t, 256, 0)
	res := retrieve(t, s, 77, key, data)
	if !res.Success {
		t.Fatalf("retrieval failed: %+v", res)
	}
	if !s.h.CachedAt(77, key, s.e.Round()) {
		t.Fatal("completer did not cache the item")
	}
	// Replace the node as the engine would on churn.
	s.h.OnJoin(s.e, 77, 1<<40, s.e.Round())
	if s.h.CachedAt(77, key, s.e.Round()) {
		t.Fatal("replaced slot still reports a cached copy")
	}
	// The newcomer's own retrieval must fall back to the full search
	// path (it can still be served by OTHER nodes' caches, but never
	// from the cleared region in the same tick).
	served := s.h.Counters().CacheServed
	again := retrieve(t, s, 77, key, data)
	if !again.Success {
		t.Fatalf("newcomer retrieval failed: %+v", again)
	}
	if again.Done == again.Start {
		t.Fatal("newcomer resolved in 0 rounds: served from a cleared cache region")
	}
	if again.Cached && s.h.Counters().CacheServed == served {
		t.Fatal("result marked cached but no replica serve happened")
	}
}

// TestCacheTTLExpiryFallsBack: with a tiny TTL every seeded replica is
// expired by the time the second retrieval runs, so the search falls
// back to the full Algorithm-4 path and still succeeds.
func TestCacheTTLExpiryFallsBack(t *testing.T) {
	s, key, data := cacheSim(t, 256, 2)
	first := retrieve(t, s, 50, key, data)
	if !first.Success {
		t.Fatalf("first retrieval failed: %+v", first)
	}
	// Outlive the TTL — generously. The first search retires its
	// landmarks within TreeDepth+1 rounds of succeeding, but until then
	// every inquiry lookup that frees an expired entry lets a later seed
	// re-install (and re-cascade); the wait also outlasts any task a
	// retire missed, whose inquiries stop only at its own TTL.
	s.run(s.h.P.SearchTTL + 2*s.h.P.LandmarkTTL)
	second := retrieve(t, s, 50, key, data)
	if !second.Success {
		t.Fatalf("post-expiry retrieval failed: %+v", second)
	}
	if second.Cached {
		t.Fatalf("post-expiry retrieval was cache-served: %+v", second)
	}
	if s.h.Counters().CacheExpired == 0 {
		t.Fatal("no expired-entry lookups counted")
	}
}

// TestCacheSeedsSpread: completions seed walk-sample sources, and
// first-time installs cascade, so repeated retrievals grow the hot
// key's replica population well beyond the searchers themselves.
func TestCacheSeedsSpread(t *testing.T) {
	s, key, data := cacheSim(t, 256, 0)
	for i := 0; i < 6; i++ {
		if res := retrieve(t, s, 10+17*i, key, data); !res.Success {
			t.Fatalf("retrieval %d failed: %+v", i, res)
		}
	}
	load := s.h.CacheLoad(s.e.Round())
	if load < 20 {
		t.Fatalf("cache load %d after 6 completions, want cascade spread >= 20", load)
	}
	c := s.h.Counters()
	if c.CacheSeeds == 0 || c.CacheInserts == 0 {
		t.Fatalf("no seeding activity: %+v", c)
	}
}

// TestCacheDisabledIsInert: capacity 0 must leave every cache counter
// at zero and still retrieve correctly.
func TestCacheDisabledIsInert(t *testing.T) {
	s := newSim(t, 256, churn.ZeroLaw{}, 0, 9)
	s.warm()
	key := uint64(42)
	data := itemBytes(key, 96)
	s.h.RequestStore(s.e, 0, key, data)
	s.run(s.h.P.Period)
	for i := 0; i < 3; i++ {
		if res := retrieve(t, s, 10+17*i, key, data); !res.Success || res.Cached {
			t.Fatalf("retrieval %d: %+v", i, res)
		}
	}
	c := s.h.Counters()
	if c.CacheHits != 0 || c.CacheServed != 0 || c.CacheSeeds != 0 || c.CacheInserts != 0 {
		t.Fatalf("cache counters nonzero with caching off: %+v", c)
	}
}
