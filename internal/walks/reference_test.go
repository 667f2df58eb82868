package walks

import (
	"cmp"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/expander"
	"dynp2p/internal/simnet"
)

// refSoup is the naive reference model: the pre-columnar per-slot-bucket
// implementation (PR 2's walks.go), transcribed serially. Buckets are
// []Token slices, the exchange appends arrivals destination-by-destination
// in ascending source-slot order (shard slot ranges are contiguous and
// ascending, so this equals the sharded implementation's (srcShard,
// srcSlot, seq) merge order), and the three preludes — churn death, sample
// clearing, generation — run as explicit serial loops. It shares only
// stepHash with the production code.
type refSoup struct {
	p       Params
	n       int
	seed    uint64
	buckets [][]Token
	samples [][]Sample
	m       Metrics
}

func newRefSoup(e *simnet.Engine, p Params) *refSoup {
	if p.Deadline < p.WalkLength {
		p.Deadline = p.WalkLength
	}
	n := e.N()
	return &refSoup{
		p: p, n: n, seed: e.Config().ProtocolSeed,
		buckets: make([][]Token, n),
		samples: make([][]Sample, n),
	}
}

func (s *refSoup) Inject(e *simnet.Engine, slot, count, round int) int {
	id := e.IDAt(slot)
	base := len(s.buckets[slot])
	if limit := 1<<16 - base; count > limit {
		count = max(limit, 0)
	}
	for k := 0; k < count; k++ {
		s.buckets[slot] = append(s.buckets[slot], Token{
			Src: id, Birth: int32(round), Serial: uint16(base + k),
			Steps: uint16(s.p.WalkLength),
		})
	}
	s.m.Generated += int64(count)
	return count
}

func (s *refSoup) StepRound(e *simnet.Engine, round int) {
	// 1. Tokens at churned slots die with their carriers.
	for _, slot := range e.ChurnedThisRound() {
		s.m.Died += int64(len(s.buckets[slot]))
		s.buckets[slot] = s.buckets[slot][:0]
	}
	// 2. Clear last round's samples.
	for i := range s.samples {
		s.samples[i] = s.samples[i][:0]
	}
	// 3. Generate fresh walks, clamped at the uint16 serial bound.
	if s.p.WalksPerRound > 0 {
		for slot := 0; slot < s.n; slot++ {
			id := e.IDAt(slot)
			base := len(s.buckets[slot])
			count := s.p.WalksPerRound
			if limit := 1<<16 - base; count > limit {
				count = max(limit, 0)
			}
			for k := 0; k < count; k++ {
				s.buckets[slot] = append(s.buckets[slot], Token{
					Src: id, Birth: int32(round), Serial: uint16(base + k),
					Steps: uint16(s.p.WalkLength),
				})
			}
			s.m.Generated += int64(count)
		}
	}
	// 4. Move every token one step, slot-major; arrivals append in
	// ascending source-slot order.
	g := e.Graph()
	d := uint64(g.Degree())
	arrivalT := make([][]Token, s.n)
	arrivalS := make([][]Sample, s.n)
	for slot := 0; slot < s.n; slot++ {
		bucket := s.buckets[slot]
		budget := len(bucket)
		if s.p.ForwardCap > 0 && budget > s.p.ForwardCap {
			budget = s.p.ForwardCap
			s.m.Deferred += int64(len(bucket) - budget)
		}
		keep := bucket[:0]
		for i := range bucket {
			t := bucket[i]
			if round-int(t.Birth) > s.p.Deadline {
				s.m.Overdue++
				continue
			}
			if i >= budget {
				keep = append(keep, t)
				continue
			}
			h := stepHash(s.seed, round, t.Src, t.Birth, t.Serial)
			dst := slot
			if lazyStay := s.p.Lazy && h>>63 == 1; !lazyStay {
				if s.p.Lazy {
					h <<= 1
				}
				port, _ := bits.Mul64(h, d)
				dst = int(g.Neighbor(slot, int(port)))
			}
			t.Steps--
			s.m.Moves++
			if t.Steps == 0 {
				s.m.Completed++
				arrivalS[dst] = append(arrivalS[dst], Sample{Src: t.Src, Birth: t.Birth})
			} else {
				arrivalT[dst] = append(arrivalT[dst], t)
			}
		}
		s.buckets[slot] = keep
	}
	for slot := 0; slot < s.n; slot++ {
		s.buckets[slot] = append(s.buckets[slot], arrivalT[slot]...)
		s.samples[slot] = append(s.samples[slot], arrivalS[slot]...)
	}
}

func cmpToken(a, b Token) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Birth, b.Birth); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Serial, b.Serial); c != 0 {
		return c
	}
	return cmp.Compare(a.Steps, b.Steps)
}

func cmpSample(a, b Sample) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Birth, b.Birth)
}

// runAgainstReference drives a columnar soup and the reference model on
// one engine for rounds rounds (with periodic Injects), comparing buckets,
// samples, and metrics every round. exactOrder demands bit-identical
// bucket and sample ordering; otherwise per-slot multisets are compared
// (the lazy store keeps a canonical order of its own).
func runAgainstReference(t *testing.T, p Params, workers, n, rounds int, exactOrder bool) {
	t.Helper()
	runAgainstReferenceShards(t, p, workers, 0, n, rounds, exactOrder)
}

// runAgainstReferenceShards is runAgainstReference with an explicit shard
// count (0 = the engine's adaptive default).
func runAgainstReferenceShards(t *testing.T, p Params, workers, shards, n, rounds int, exactOrder bool) {
	t.Helper()
	e := simnet.New(simnet.Config{
		N: n, Degree: 8, EdgeMode: expander.Rerandomize, Shards: shards,
		AdversarySeed: 11, ProtocolSeed: 12,
		Strategy: churn.Uniform, Law: churn.FixedLaw{Count: 3},
	})
	soup := NewSoup(e, p, workers)
	ref := newRefSoup(e, p)
	e.AddHook(soup)
	e.AddHook(ref)
	var tokScratch []Token
	for r := 0; r < rounds; r++ {
		if r%37 == 5 {
			slot := (r * 13) % n
			got := soup.Inject(e, slot, 40, e.Round())
			want := ref.Inject(e, slot, 40, e.Round())
			if got != want {
				t.Fatalf("round %d: Inject returned %d, reference %d", r, got, want)
			}
		}
		e.RunRound(simnet.NopHandler{})
		if m := soup.Metrics(); m != ref.m {
			t.Fatalf("round %d workers=%d: metrics diverged:\ncolumnar  %+v\nreference %+v", r, workers, m, ref.m)
		}
		refTotal := 0
		for slot := 0; slot < n; slot++ {
			refTotal += len(ref.buckets[slot])
		}
		if got := soup.TotalTokens(); got != refTotal {
			t.Fatalf("round %d: TotalTokens = %d, reference %d", r, got, refTotal)
		}
		for slot := 0; slot < n; slot++ {
			tokScratch = soup.AppendTokens(slot, tokScratch[:0])
			if got := soup.TokensAt(slot); got != len(tokScratch) || got != len(ref.buckets[slot]) {
				t.Fatalf("round %d slot %d: TokensAt = %d, AppendTokens = %d, reference %d",
					r, slot, got, len(tokScratch), len(ref.buckets[slot]))
			}
			gotS := soup.Samples(slot)
			wantS := ref.samples[slot]
			if len(gotS) != len(wantS) {
				t.Fatalf("round %d slot %d: %d samples, reference %d", r, slot, len(gotS), len(wantS))
			}
			gotT := tokScratch
			wantT := ref.buckets[slot]
			if !exactOrder {
				gotT = slices.Clone(gotT)
				wantT = slices.Clone(wantT)
				slices.SortFunc(gotT, cmpToken)
				slices.SortFunc(wantT, cmpToken)
				gotS = slices.Clone(gotS)
				wantS = slices.Clone(wantS)
				slices.SortFunc(gotS, cmpSample)
				slices.SortFunc(wantS, cmpSample)
			}
			for i := range wantT {
				if gotT[i] != wantT[i] {
					t.Fatalf("round %d slot %d token %d: %+v, reference %+v (exactOrder=%v)",
						r, slot, i, gotT[i], wantT[i], exactOrder)
				}
			}
			for i := range wantS {
				if gotS[i] != wantS[i] {
					t.Fatalf("round %d slot %d sample %d: %+v, reference %+v (exactOrder=%v)",
						r, slot, i, gotS[i], wantS[i], exactOrder)
				}
			}
		}
	}
}

// TestColumnarMatchesReferenceCapped pins the capped path — the
// materialized slot-major store rebuilt by the counting-sort gather — to
// the old per-slot-bucket semantics bit for bit: bucket contents AND
// ordering, sample streams, and every metric, for several hundred rounds
// under churn + ForwardCap + Lazy + periodic injection, at worker counts
// 1, 3, and GOMAXPROCS.
func TestColumnarMatchesReferenceCapped(t *testing.T) {
	p := Params{WalksPerRound: 3, WalkLength: 7, Deadline: 20, ForwardCap: 25, Lazy: true}
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		for _, n := range []int{50, 128} { // 50 < shard.Count exercises empty shards
			runAgainstReference(t, p, workers, n, 300, true)
		}
	}
}

// TestLazyMatchesReference is the bugfix safety net for the lazy
// trajectory evaluator: several hundred rounds of churn + Lazy + periodic
// injection, compared against the naive reference model every round —
// per-slot token multisets, TokensAt/TotalTokens, per-slot sample
// multisets, and every metric — at worker counts 1, 3, and GOMAXPROCS.
// Because the harness queries the soup every round, this also drives the
// query-forced partial-evaluation machinery (cached cohort positions,
// retrospective arrival counts, resumed delivery) through every round.
func TestLazyMatchesReference(t *testing.T) {
	p := Params{WalksPerRound: 3, WalkLength: 7, Deadline: 20, Lazy: true}
	for _, workers := range []int{1, 3, runtime.GOMAXPROCS(0)} {
		for _, n := range []int{50, 128} { // 50 < shard.Count exercises empty shards
			runAgainstReference(t, p, workers, n, 300, false)
		}
	}
}

// TestLazyMatchesReferenceShardCounts re-runs the lazy oracle at pinned
// non-default shard counts — the grid floor (16) and ceiling (256) — so the
// adaptive Pick cannot mask a grid-geometry bug. At 256 shards on n=128
// more than half the shards own zero slots; per-slot multisets and metrics
// must still match the serial reference exactly.
func TestLazyMatchesReferenceShardCounts(t *testing.T) {
	p := Params{WalksPerRound: 3, WalkLength: 7, Deadline: 20, Lazy: true}
	for _, shards := range []int{16, 256} {
		for _, workers := range []int{1, 3} {
			runAgainstReferenceShards(t, p, workers, shards, 128, 200, false)
		}
	}
}

// TestLazyMatchesReferenceShortWalks covers the T=1 and T=2 degenerate
// ring geometries (a cohort delivering the round it is born; a ring of
// minimum depth) that the default-length oracle never reaches.
func TestLazyMatchesReferenceShortWalks(t *testing.T) {
	for _, T := range []int{1, 2} {
		p := Params{WalksPerRound: 2, WalkLength: T, Deadline: 3 * T, Lazy: true}
		runAgainstReference(t, p, 1, 64, 120, false)
		runAgainstReference(t, p, 3, 64, 120, false)
	}
}
