package walks

import (
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/simnet"
)

// lazyTestParams is the standard churny configuration the lazy tests run.
func lazyTestParams() Params {
	return Params{WalksPerRound: 4, WalkLength: 8, Deadline: 30, Lazy: true}
}

// TestLazyForcingIndependence pins that query-time forcing is purely
// observational: a lazy soup interrogated every round (Metrics, TokensAt,
// TotalTokens — all of which force partial cohort evaluation) must
// deliver byte-for-byte the same per-round sample stream and final
// counters as an identical run that is never queried mid-flight. This is
// the regression net for the resume bookkeeping (evalRound, cached
// positions, incremental arrival counts): any double-count or missed
// resume shows up as a divergence here.
func TestLazyForcingIndependence(t *testing.T) {
	const n, rounds = 128, 60
	run := func(query bool) ([]Sample, Metrics) {
		e := newEngine(n, churn.FixedLaw{Count: 4}, 21, 22)
		s := NewSoup(e, lazyTestParams(), 0)
		e.AddHook(s)
		var stream []Sample
		for r := 0; r < rounds; r++ {
			if r%11 == 3 {
				s.Inject(e, (r*7)%n, 10, e.Round())
			}
			e.RunRound(simnet.NopHandler{})
			for slot := 0; slot < n; slot++ {
				stream = append(stream, s.Samples(slot)...)
			}
			if query {
				_ = s.Metrics()
				_ = s.TotalTokens()
				for slot := 0; slot < n; slot += 17 {
					_ = s.TokensAt(slot)
				}
			}
		}
		return stream, s.Metrics()
	}
	qStream, qMetrics := run(true)
	pStream, pMetrics := run(false)
	if qMetrics != pMetrics {
		t.Fatalf("metrics diverge under querying:\nqueried %+v\npure    %+v", qMetrics, pMetrics)
	}
	if len(qStream) != len(pStream) {
		t.Fatalf("sample streams differ in length: %d vs %d", len(qStream), len(pStream))
	}
	for i := range qStream {
		if qStream[i] != pStream[i] {
			t.Fatalf("sample stream diverges at %d: %+v vs %+v", i, qStream[i], pStream[i])
		}
	}
}

// TestLazyDeterministicAcrossWorkerCounts is the lazy-store sibling of
// TestDeterministicAcrossWorkerCounts (which runs the capped store): the
// full ordered arrival stream, metrics, and per-slot counts must be
// identical at every worker count even though multi-worker replays use
// atomic arrival updates and shard-major evaluation order.
func TestLazyDeterministicAcrossWorkerCounts(t *testing.T) {
	const n, rounds = 128, 40
	run := func(workers int) (Metrics, []int) {
		e := newEngine(n, churn.FixedLaw{Count: 4}, 31, 32)
		s := NewSoup(e, lazyTestParams(), workers)
		e.AddHook(s)
		var arrivals []int
		for r := 0; r < rounds; r++ {
			if r%9 == 2 {
				s.Inject(e, (r*5)%n, 7, e.Round())
			}
			e.RunRound(simnet.NopHandler{})
			for slot := 0; slot < n; slot++ {
				for _, sm := range s.Samples(slot) {
					arrivals = append(arrivals, slot*1000000+int(sm.Src))
				}
				arrivals = append(arrivals, -1-s.TokensAt(slot))
			}
		}
		return s.Metrics(), arrivals
	}
	m1, a1 := run(1)
	m7, a7 := run(7)
	if m1 != m7 {
		t.Fatalf("metrics differ across worker counts:\n  w=1: %+v\n  w=7: %+v", m1, m7)
	}
	if len(a1) != len(a7) {
		t.Fatalf("arrival streams differ in length: %d vs %d", len(a1), len(a7))
	}
	for i := range a1 {
		if a1[i] != a7[i] {
			t.Fatalf("arrival streams differ at %d: %d vs %d", i, a1[i], a7[i])
		}
	}
}

// TestInjectGenerationSerialDisjoint pins the Inject / generation-coda
// serial-disjointness invariant in every store mode: generation continues
// serials from the *post-inject* stored count, so injecting into a slot
// immediately before RunRound — including into the slot that also
// generates that round — must never mint two tokens sharing a
// (Src, Birth, Serial) step-hash identity (a collision would make the
// pair walk in lock-step forever). The run churns, so the audit also
// covers the replaced-slot path where generation restarts at serial 0
// under a fresh id while the injected tokens died with the old one. All
// in-flight identities are audited every round up to and including each
// cohort's delivery round.
func TestInjectGenerationSerialDisjoint(t *testing.T) {
	const n, rounds = 64, 40
	for _, mode := range []struct {
		name string
		p    Params
	}{
		{"capped", Params{WalksPerRound: 3, WalkLength: 6, Deadline: 20, ForwardCap: 1 << 20}},
		{"lazy", Params{WalksPerRound: 3, WalkLength: 6, Deadline: 20}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			e := newEngine(n, churn.FixedLaw{Count: 5}, 41, 42)
			s := NewSoup(e, mode.p, 0)
			e.AddHook(s)
			var toks []Token
			seen := make(map[Token]bool)
			for r := 0; r < rounds; r++ {
				slot := (r * 13) % n
				injected := s.Inject(e, slot, 25, e.Round())
				if injected != 25 {
					t.Fatalf("round %d: injected %d, want 25", r, injected)
				}
				e.RunRound(simnet.NopHandler{})
				clear(seen)
				for sl := 0; sl < n; sl++ {
					toks = s.AppendTokens(sl, toks[:0])
					for _, tok := range toks {
						id := Token{Src: tok.Src, Birth: tok.Birth, Serial: tok.Serial}
						if seen[id] {
							t.Fatalf("round %d: duplicate step-hash identity %+v at slot %d", r, id, sl)
						}
						seen[id] = true
					}
				}
			}
			if s.Metrics().Completed == 0 {
				t.Fatal("no cohort ever delivered; the audit never crossed a delivery round")
			}
		})
	}
}

// TestStoreSelection pins how NewSoup picks the token store from
// ForwardCap: the lazy evaluator for an uncapped soup, the materialized
// slot-major store when a forwarding cap is set.
func TestStoreSelection(t *testing.T) {
	e := newEngine(32, churn.ZeroLaw{})
	if s := NewSoup(e, Params{WalkLength: 4}, 0); s.lz == nil {
		t.Fatal("uncapped soup did not select the lazy evaluator")
	}
	if s := NewSoup(e, Params{WalkLength: 4, ForwardCap: 2}, 0); s.lz != nil {
		t.Fatal("capped soup selected the lazy evaluator, want the materialized store")
	}
}

// TestLazySteadyStateReleasesBuffers pins the memory story the lazy store
// exists for: in a no-query steady state the only live token buffers are
// the delivering cohort's, recycled through the per-shard pool — the
// in-flight population is never materialized.
func TestLazySteadyStateReleasesBuffers(t *testing.T) {
	const n = 256
	e := newEngine(n, churn.FixedLaw{Count: 2})
	p := lazyTestParams()
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	for r := 0; r < 4*p.WalkLength; r++ {
		e.RunRound(simnet.NopHandler{})
	}
	live, pooled := 0, 0
	for i := range s.shards {
		ss := &s.shards[i]
		for _, buf := range ss.lzToks {
			if buf != nil {
				live++
			}
		}
		pooled += len(ss.lzFree)
	}
	if live != 0 {
		t.Fatalf("%d cohort buffers still live in steady state, want 0 (delivery must release)", live)
	}
	if pooled != len(s.shards) {
		t.Fatalf("pool holds %d buffers, want exactly one per shard (%d)", pooled, len(s.shards))
	}
}
