package walks

import (
	"math"
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/expander"
	"dynp2p/internal/simnet"
	"dynp2p/internal/stats"
)

func newEngine(n int, law churn.Law, seeds ...uint64) *simnet.Engine {
	advSeed, protoSeed := uint64(1), uint64(2)
	if len(seeds) > 0 {
		advSeed = seeds[0]
	}
	if len(seeds) > 1 {
		protoSeed = seeds[1]
	}
	return simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: expander.Rerandomize,
		AdversarySeed: advSeed, ProtocolSeed: protoSeed,
		Strategy: churn.Uniform, Law: law,
	})
}

func TestTokenConservationNoChurn(t *testing.T) {
	// Without churn, Generated = Completed + InFlight at all times.
	e := newEngine(256, churn.ZeroLaw{})
	p := Params{WalksPerRound: 3, WalkLength: 10, Deadline: 100}
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	for r := 0; r < 30; r++ {
		e.RunRound(simnet.NopHandler{})
		m := s.Metrics()
		if m.Died != 0 || m.Overdue != 0 {
			t.Fatalf("round %d: unexpected losses %+v", r, m)
		}
		if m.Generated != m.Completed+int64(s.TotalTokens()) {
			t.Fatalf("round %d: conservation violated: %+v inflight=%d",
				r, m, s.TotalTokens())
		}
	}
}

func TestWalksCompleteInExactlyTRounds(t *testing.T) {
	// With no cap and no churn, a batch injected at round r completes at
	// round r+T-1... the T-th movement. Verify via a single injection.
	e := newEngine(128, churn.ZeroLaw{})
	p := Params{WalksPerRound: 0, WalkLength: 5, Deadline: 50}
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	e.RunRound(simnet.NopHandler{}) // round 0, no tokens
	s.Inject(e, 7, 100, 1)
	completedAt := -1
	for r := 1; r <= 10; r++ {
		e.RunRound(simnet.NopHandler{})
		if s.Metrics().Completed == 100 && completedAt < 0 {
			completedAt = r
		}
	}
	if completedAt != 5 {
		t.Fatalf("batch completed at round %d, want 5 (T=5)", completedAt)
	}
}

func TestSamplesCarrySource(t *testing.T) {
	e := newEngine(64, churn.ZeroLaw{})
	p := Params{WalksPerRound: 0, WalkLength: 3, Deadline: 30}
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	e.RunRound(simnet.NopHandler{})
	srcID := e.IDAt(5)
	s.Inject(e, 5, 50, 1)
	total := 0
	for r := 1; r <= 3; r++ {
		e.RunRound(simnet.NopHandler{})
		for slot := 0; slot < e.N(); slot++ {
			for _, sample := range s.Samples(slot) {
				if sample.Src != srcID {
					t.Fatalf("sample src %d, want %d", sample.Src, srcID)
				}
				if sample.Birth != 1 {
					t.Fatalf("sample birth %d, want 1", sample.Birth)
				}
				total++
			}
		}
	}
	if total != 50 {
		t.Fatalf("delivered %d samples, want 50", total)
	}
}

func TestChurnKillsTokens(t *testing.T) {
	e := newEngine(64, churn.FixedLaw{Count: 8})
	p := Params{WalksPerRound: 2, WalkLength: 20, Deadline: 100}
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	for r := 0; r < 25; r++ {
		e.RunRound(simnet.NopHandler{})
	}
	m := s.Metrics()
	if m.Died == 0 {
		t.Fatal("no tokens died despite churn")
	}
	if m.Generated != m.Completed+m.Died+m.Overdue+int64(s.TotalTokens()) {
		t.Fatalf("conservation violated: %+v inflight=%d", m, s.TotalTokens())
	}
}

func TestForwardCapDefersTokens(t *testing.T) {
	e := newEngine(64, churn.ZeroLaw{})
	p := Params{WalksPerRound: 10, WalkLength: 8, Deadline: 80, ForwardCap: 5}
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	for r := 0; r < 10; r++ {
		e.RunRound(simnet.NopHandler{})
	}
	if s.Metrics().Deferred == 0 {
		t.Fatal("tight forward cap never deferred a token")
	}
}

func TestDeadlineEvictsTokens(t *testing.T) {
	// Cap of 1 with 10 generated per round: queues explode, deadline must
	// reclaim them.
	e := newEngine(32, churn.ZeroLaw{})
	p := Params{WalksPerRound: 10, WalkLength: 8, Deadline: 10, ForwardCap: 1}
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	for r := 0; r < 40; r++ {
		e.RunRound(simnet.NopHandler{})
	}
	if s.Metrics().Overdue == 0 {
		t.Fatal("deadline never evicted a token")
	}
	// In-flight population must stay bounded (roughly n * gen * deadline).
	if s.TotalTokens() > 32*10*12 {
		t.Fatalf("token population unbounded: %d", s.TotalTokens())
	}
}

func TestDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (int64, int64, []int) {
		e := newEngine(128, churn.FixedLaw{Count: 4})
		p := Params{WalksPerRound: 4, WalkLength: 10, Deadline: 40, ForwardCap: 30}
		s := NewSoup(e, p, workers)
		e.AddHook(s)
		var arrivals []int
		for r := 0; r < 20; r++ {
			e.RunRound(simnet.NopHandler{})
			for slot := 0; slot < e.N(); slot++ {
				for _, sm := range s.Samples(slot) {
					arrivals = append(arrivals, slot*1000000+int(sm.Src))
				}
			}
		}
		m := s.Metrics()
		return m.Completed, m.Died, arrivals
	}
	c1, d1, a1 := run(1)
	c2, d2, a2 := run(7)
	if c1 != c2 || d1 != d2 {
		t.Fatalf("metrics differ across worker counts: (%d,%d) vs (%d,%d)", c1, d1, c2, d2)
	}
	if len(a1) != len(a2) {
		t.Fatalf("arrival streams differ in length: %d vs %d", len(a1), len(a2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("arrival streams differ at %d", i)
		}
	}
}

func TestMixingToNearUniform(t *testing.T) {
	// Static-node sanity check of the soup's core promise: on an expander
	// without churn, walk endpoints approach uniform. Inject batches from
	// one slot repeatedly and check the endpoint histogram's TV distance.
	const n = 512
	e := newEngine(n, churn.ZeroLaw{})
	p := Params{WalksPerRound: 0, WalkLength: 2 * int(math.Ceil(math.Log(n))), Deadline: 200}
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	e.RunRound(simnet.NopHandler{})
	counts := make([]int, n)
	const batches = 40
	const perBatch = 500
	for b := 0; b < batches; b++ {
		s.Inject(e, 3, perBatch, e.Round())
		for r := 0; r < p.WalkLength; r++ {
			e.RunRound(simnet.NopHandler{})
			for slot := 0; slot < n; slot++ {
				counts[slot] += len(s.Samples(slot))
			}
		}
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != batches*perBatch {
		t.Fatalf("lost walks: %d of %d arrived", total, batches*perBatch)
	}
	tv := stats.TVDistanceFromUniform(counts)
	// With 20000 samples over 512 bins, sampling noise alone gives
	// TV ≈ sqrt(512/(2·pi·20000)) ≈ 0.06; mixing error should keep us
	// well under 0.15.
	if tv > 0.15 {
		t.Fatalf("endpoint distribution TV = %v, want < 0.15", tv)
	}
}

func TestLazyWalksStillMix(t *testing.T) {
	const n = 256
	e := newEngine(n, churn.ZeroLaw{})
	T := 4 * int(math.Ceil(math.Log(n))) // lazy needs ~2x steps
	p := Params{WalksPerRound: 0, WalkLength: T, Deadline: 10 * T, Lazy: true}
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	e.RunRound(simnet.NopHandler{})
	counts := make([]int, n)
	const batches = 20
	for b := 0; b < batches; b++ {
		s.Inject(e, 0, 500, e.Round())
		for r := 0; r < T; r++ {
			e.RunRound(simnet.NopHandler{})
			for slot := 0; slot < n; slot++ {
				counts[slot] += len(s.Samples(slot))
			}
		}
	}
	tv := stats.TVDistanceFromUniform(counts)
	if tv > 0.2 {
		t.Fatalf("lazy endpoint TV = %v, want < 0.2", tv)
	}
}

func TestDefaultParamsScaling(t *testing.T) {
	p1 := DefaultParams(1000)
	p2 := DefaultParams(1000000)
	if p2.WalkLength <= p1.WalkLength {
		t.Fatal("walk length should grow with n")
	}
	if p1.Deadline < p1.WalkLength {
		t.Fatal("deadline below walk length")
	}
	if p1.WalksPerRound < 1 {
		t.Fatal("walks per round must be positive")
	}
}

func TestInjectCountsGenerated(t *testing.T) {
	e := newEngine(32, churn.ZeroLaw{})
	s := NewSoup(e, Params{WalkLength: 4, Deadline: 10}, 0)
	s.Inject(e, 0, 25, 0)
	if s.Metrics().Generated != 25 {
		t.Fatalf("generated = %d, want 25", s.Metrics().Generated)
	}
	if s.TokensAt(0) != 25 {
		t.Fatalf("TokensAt(0) = %d, want 25", s.TokensAt(0))
	}
}

func TestLazyStepUsesAllPorts(t *testing.T) {
	// Regression test for the fastrange port pick: with Lazy=true the coin
	// and the port must come from disjoint hash bits, or half the ports
	// are never taken. On a static topology, one-step walks injected at a
	// slot must reach every distinct neighbour of that slot.
	e := simnet.New(simnet.Config{
		N: 64, Degree: 8, EdgeMode: expander.Static,
		AdversarySeed: 1, ProtocolSeed: 2, Law: churn.ZeroLaw{},
	})
	s := NewSoup(e, Params{WalkLength: 1, Deadline: 4, Lazy: true}, 0)
	e.AddHook(s)
	s.Inject(e, 0, 4000, 0)
	srcID := e.IDAt(0)
	neighbors := map[int]bool{}
	for _, w := range e.Graph().Neighbors(0) {
		neighbors[int(w)] = false
	}
	e.RunRound(simnet.NopHandler{})
	for slot := 0; slot < e.N(); slot++ {
		for _, smp := range s.Samples(slot) {
			if smp.Src != srcID {
				continue
			}
			if _, ok := neighbors[slot]; !ok && slot != 0 {
				t.Fatalf("walk landed at %d, not a neighbour of 0", slot)
			}
			neighbors[slot] = true
		}
	}
	for slot, hit := range neighbors {
		if !hit && slot != 0 {
			t.Errorf("neighbour slot %d (a port of slot 0) never reached by 4000 one-step lazy walks", slot)
		}
	}
}

func TestInjectClampsSerialOverflow(t *testing.T) {
	// The per-(source, round) Serial is a uint16: a slot can start at most
	// 65536 walks in one round before serials would wrap and collide.
	e := newEngine(32, churn.ZeroLaw{})
	s := NewSoup(e, Params{WalkLength: 4, Deadline: 10}, 0)
	if got := s.Inject(e, 0, 1<<16+500, 0); got != 1<<16 {
		t.Fatalf("injected %d, want %d", got, 1<<16)
	}
	if got := s.Inject(e, 0, 10, 0); got != 0 {
		t.Fatalf("over-full slot injected %d more, want 0", got)
	}
	if g := s.Metrics().Generated; g != 1<<16 {
		t.Fatalf("generated = %d, want %d", g, 1<<16)
	}
	if got := s.Inject(e, 1, 10, 0); got != 10 {
		t.Fatalf("fresh slot injected %d, want 10", got)
	}
}

func TestInjectClampNoLockstepTokens(t *testing.T) {
	// Regression for the uint16-serial clamp surviving the columnar
	// rewrite, on both store representations: injecting past 65536 must
	// return the clamped count, and no two tokens in the bucket may share
	// a (Src, Birth, Serial) step-hash identity — a wrapped serial would
	// make the pair walk in lock-step forever.
	for _, cap := range []int{0, 1 << 20} { // lazy store, capped store
		e := newEngine(32, churn.ZeroLaw{})
		s := NewSoup(e, Params{WalkLength: 4, Deadline: 10, ForwardCap: cap}, 0)
		if got := s.Inject(e, 3, 1<<16+500, 0); got != 1<<16 {
			t.Fatalf("cap=%d: injected %d, want %d", cap, got, 1<<16)
		}
		if got := s.Inject(e, 3, 1, 0); got != 0 {
			t.Fatalf("cap=%d: over-full slot accepted another token", cap)
		}
		toks := s.AppendTokens(3, nil)
		if len(toks) != 1<<16 {
			t.Fatalf("cap=%d: bucket holds %d tokens, want %d", cap, len(toks), 1<<16)
		}
		seen := make(map[Token]bool, len(toks))
		for _, tok := range toks {
			id := Token{Src: tok.Src, Birth: tok.Birth, Serial: tok.Serial}
			if seen[id] {
				t.Fatalf("cap=%d: duplicate step-hash identity %+v", cap, id)
			}
			seen[id] = true
		}
	}
}

func TestNewSoupValidation(t *testing.T) {
	e := newEngine(32, churn.ZeroLaw{})
	defer func() {
		if recover() == nil {
			t.Fatal("zero walk length did not panic")
		}
	}()
	NewSoup(e, Params{WalkLength: 0}, 0)
}

func BenchmarkMicroSoupRound(b *testing.B) {
	e := newEngine(4096, churn.PaperLaw(1, 0.5))
	p := DefaultParams(4096)
	s := NewSoup(e, p, 0)
	e.AddHook(s)
	// Warm up to steady-state token population.
	for r := 0; r < p.WalkLength+2; r++ {
		e.RunRound(simnet.NopHandler{})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunRound(simnet.NopHandler{})
	}
	b.ReportMetric(float64(s.Metrics().Moves)/float64(b.N), "token-moves/round")
}
