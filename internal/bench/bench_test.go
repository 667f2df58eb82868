package bench

import (
	"fmt"
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/expander"
	"dynp2p/internal/overlay"
	"dynp2p/internal/simnet"
	"dynp2p/internal/walks"
)

// sizes returns the network sizes the round-loop benchmarks run at.
func sizes() []int {
	if testing.Short() {
		return []int{4096}
	}
	return []int{4096, 65536}
}

// fanoutHandler sends a fixed number of messages per node per round to
// pseudo-random live targets, exercising the handler fan-out and routing
// paths without any protocol logic on top.
type fanoutHandler struct{ fanout int }

func (fanoutHandler) OnJoin(*simnet.Engine, int, simnet.NodeID, int)  {}
func (fanoutHandler) OnLeave(*simnet.Engine, int, simnet.NodeID, int) {}
func (h fanoutHandler) HandleRound(ctx *simnet.Ctx) {
	n := ctx.E.N()
	for i := 0; i < h.fanout; i++ {
		ctx.Send(ctx.E.IDAt(ctx.Rand.Intn(n)), 1, 0, 0, nil)
	}
}

// BenchmarkRouteOnly measures one engine round whose only work is message
// fan-out and routing: static topology, no churn, no soup, 4 messages per
// node per round. In steady state this path must be allocation-free.
func BenchmarkRouteOnly(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := simnet.New(simnet.Config{
				N: n, Degree: 8, EdgeMode: expander.Static,
				AdversarySeed: 1, ProtocolSeed: 2, Law: churn.ZeroLaw{},
			})
			h := fanoutHandler{fanout: 4}
			// Warm to steady state so inbox/shard buffers reach capacity
			// (inbox sizes are random maxima; give them time to peak).
			e.Run(h, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RunRound(h)
			}
			b.ReportMetric(float64(4*n), "msgs/round")
		})
	}
}

// soupSizes returns the sizes BenchmarkSoupOnly runs at. The soup is the
// round loop's dominant cost and the reason the n >= 2^20 scenario sizes
// are in reach, so it alone also runs at n=262144 (~85M in-flight tokens,
// a few GB of store+staging) when -short is not set — the scale point
// that shows whether token-moves/s holds as the working set leaves cache.
func soupSizes() []int {
	if testing.Short() {
		return []int{4096}
	}
	return []int{4096, 65536, 262144}
}

// BenchmarkSoupOnly measures one engine round whose only work is the
// random-walk soup plus per-round topology re-randomisation: the lazy
// trajectory evaluator (the uncapped store) at the paper's default walk
// density.
func BenchmarkSoupOnly(b *testing.B) {
	for _, n := range soupSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := simnet.New(simnet.Config{
				N: n, Degree: 8, EdgeMode: expander.Rerandomize,
				AdversarySeed: 1, ProtocolSeed: 2, Law: churn.ZeroLaw{},
			})
			soup := walks.NewSoup(e, walks.DefaultParams(n), 0)
			e.AddHook(soup)
			// Warm until the in-flight token population is steady (one walk
			// lifetime plus slack) so bucket and exchange buffers stop
			// growing.
			e.Run(simnet.NopHandler{}, walks.DefaultParams(n).WalkLength+16)
			startMoves := soup.Metrics().Moves
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RunRound(simnet.NopHandler{})
			}
			b.StopTimer()
			moves := soup.Metrics().Moves - startMoves
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(moves)/s, "token-moves/s")
			}
		})
	}
}

// BenchmarkOverlayRepair measures one engine round of soup plus
// self-healing topology repair under the paper's churn law (C=1,
// δ=0.5): the walk exchange, severing every churned slot's edges, and
// healing the dangling ports through sampled splices. The marginal
// repair cost over SoupOnly is the overlay's budget; like the other
// steady-state engine paths it must stay (near-)allocation-free, which
// the n=4096 row gates in scripts/bench.sh.
func BenchmarkOverlayRepair(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := simnet.New(simnet.Config{
				N: n, Degree: 8, EdgeMode: expander.SelfHealing,
				AdversarySeed: 1, ProtocolSeed: 2, Law: churn.PaperLaw(1, 0.5),
			})
			p := walks.DefaultParams(n)
			soup := walks.NewSoup(e, p, 0)
			e.AddHook(soup)
			ov := overlay.New(e, soup, overlay.Config{})
			e.AddHook(ov)
			e.Run(simnet.NopHandler{}, p.WalkLength+16)
			start := ov.Metrics()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.RunRound(simnet.NopHandler{})
			}
			b.StopTimer()
			m := ov.Metrics()
			repairs := m.Splices + m.DirectPairs - start.Splices - start.DirectPairs
			b.ReportMetric(float64(repairs)/float64(b.N), "repairs/round")
		})
	}
}

// neighborFanout sends a fixed number of messages per node per round to
// pseudo-random overlay neighbors, either id-addressed through the oracle
// or hop-by-hop through the router. Targeting neighbors keeps routed
// paths short (one forward), so the row isolates the router's per-message
// machinery — header setup, port draw, arena delivery — rather than walk
// length.
type neighborFanout struct {
	fanout int
	routed bool
}

func (neighborFanout) OnJoin(*simnet.Engine, int, simnet.NodeID, int)  {}
func (neighborFanout) OnLeave(*simnet.Engine, int, simnet.NodeID, int) {}
func (h neighborFanout) HandleRound(ctx *simnet.Ctx) {
	nb := ctx.E.Graph().Neighbors(ctx.Slot)
	if len(nb) == 0 {
		return
	}
	for i := 0; i < h.fanout; i++ {
		to := ctx.E.IDAt(int(nb[ctx.Rand.Intn(len(nb))]))
		if h.routed {
			ctx.SendRouted(simnet.Msg{To: to, Kind: 1})
		} else {
			ctx.Send(to, 1, 0, 0, nil)
		}
	}
}

// BenchmarkRoutedRound measures one engine round of neighbor fan-out with
// the overlay router on (mode=routed) against the id-addressed oracle
// fast path (mode=oracle): the per-message cost of hopping the expander
// instead of teleporting. Static topology, no churn, 4 messages per node
// per round; in steady state the routed path must stay allocation-free,
// which the n=4096 row gates in scripts/bench.sh.
func BenchmarkRoutedRound(b *testing.B) {
	for _, n := range sizes() {
		for _, routed := range []bool{true, false} {
			label := "oracle"
			cfg := simnet.Config{
				N: n, Degree: 8, EdgeMode: expander.Static,
				AdversarySeed: 1, ProtocolSeed: 2, Law: churn.ZeroLaw{},
			}
			if routed {
				label = "routed"
				cfg.Routing = simnet.RoutingConfig{Mode: simnet.RoutingOverlay, WalkBudget: 64}
			}
			b.Run(fmt.Sprintf("n=%d/mode=%s", n, label), func(b *testing.B) {
				e := simnet.New(cfg)
				h := neighborFanout{fanout: 4, routed: routed}
				e.Run(h, 64)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.RunRound(h)
				}
				b.ReportMetric(float64(4*n), "msgs/round")
			})
		}
	}
}

// BenchmarkFullRound measures one round of the complete stack — engine,
// soup, committees/landmarks/storage protocol — under the paper's churn
// law. The body is FullRound, shared with the root-level
// BenchmarkMicroSimRound.
func BenchmarkFullRound(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { FullRound(b, n) })
	}
}

// matrixSizes returns the sizes BenchmarkRoundMatrix runs at: the
// acceptance size and the paper-scale 2^20 point the delta-encoded walk
// ring and adaptive shard grid exist for. The 2^20 row is minutes of
// warmup, so -short drops to the reference size.
func matrixSizes() []int {
	if testing.Short() {
		return []int{4096}
	}
	return []int{65536, 1 << 20}
}

// BenchmarkRoundMatrix is the multi-core scaling matrix: the canonical
// FullRound body, run by scripts/bench.sh under -cpu 1,2,4 so every row
// appears at GOMAXPROCS ∈ {1,2,4}. GOMAXPROCS here governs both the
// engine's default worker count and the adaptive shard-grid pick, so the
// matrix exercises the full parallel configuration space, not just the
// scheduler. Kept separate from BenchmarkFullRound so the committed
// single-core trajectory rows stay name-compatible with the baselines.
func BenchmarkRoundMatrix(b *testing.B) {
	for _, n := range matrixSizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { FullRound(b, n) })
	}
}

// BenchmarkRetrieveHot measures rounds of a Zipf-skewed retrieval
// workload with the hot-key cache off (the committed baseline) and on.
// The body is RetrieveHot; scripts/bench.sh emits both rows so the
// cache's latency win and steady-state cost stay visible in the
// committed trajectory.
func BenchmarkRetrieveHot(b *testing.B) {
	for _, n := range sizes() {
		for _, c := range []bool{false, true} {
			label := "off"
			if c {
				label = "on"
			}
			b.Run(fmt.Sprintf("n=%d/cache=%s", n, label), func(b *testing.B) { RetrieveHot(b, n, c) })
		}
	}
}

// BenchmarkFullRoundTelemetry is BenchmarkFullRound with full tracing
// (sample rate 1) and the round-phase profiler enabled: the telemetry-tax
// row. scripts/bench.sh gates its deltas against the FullRound row — at
// most TELEMETRY_MAX_NS_PCT slower and TELEMETRY_MAX_ALLOC_DELTA extra
// allocations per round.
func BenchmarkFullRoundTelemetry(b *testing.B) {
	for _, n := range sizes() {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { FullRoundTelemetry(b, n) })
	}
}
