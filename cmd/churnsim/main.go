// Command churnsim runs a single storage-and-search scenario on the
// dynamic P2P simulator and reports what happened: committee health,
// copy counts, landmark population, retrieval outcomes, and traffic.
//
// Example:
//
//	churnsim -n 2048 -churn 1 -delta 0.5 -items 8 -searches 32 -rounds 600
//	churnsim -n 1024 -strategy oldest -ida 8
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"dynp2p"
	"dynp2p/internal/stats"
)

func main() {
	n := flag.Int("n", 1024, "stable network size")
	churnRate := flag.Float64("churn", 1, "churn constant C in C*n/log^{1+delta} n per round (0 = none)")
	delta := flag.Float64("delta", 0.5, "churn exponent delta")
	strategy := flag.String("strategy", "uniform", "churn strategy: uniform|oldest|youngest|sweep")
	rounds := flag.Int("rounds", 400, "rounds to simulate after warm-up")
	items := flag.Int("items", 4, "items to store")
	searches := flag.Int("searches", 16, "retrievals to issue")
	seed := flag.Uint64("seed", 1, "simulation seed")
	idaK := flag.Int("ida", 0, "IDA reconstruction threshold K (0 = replication)")
	itemLen := flag.Int("itemlen", 256, "item size in bytes")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	flag.Parse()

	if *n < 8 {
		fmt.Fprintf(os.Stderr, "-n must be at least 8 (got %d)\n", *n)
		flag.Usage()
		os.Exit(2)
	}
	var strat dynp2p.Strategy
	switch strings.ToLower(*strategy) {
	case "uniform":
		strat = dynp2p.Uniform
	case "oldest":
		strat = dynp2p.OldestFirst
	case "youngest":
		strat = dynp2p.YoungestFirst
	case "sweep":
		strat = dynp2p.SweepBurst
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	nw := dynp2p.New(dynp2p.Config{
		N: *n, ChurnRate: *churnRate, ChurnDelta: *delta,
		Strategy: strat, Seed: *seed, ErasureK: *idaK,
	})
	tun := nw.Tunables()
	fmt.Printf("network: n=%d degree=8 churn=%s*n/log^%.2f strategy=%s seed=%d\n",
		*n, fmtF(*churnRate), 1+*delta, strat, *seed)
	fmt.Printf("derived: walks/round=%d walk-len=%d committee=%d period=%d tree-depth=%d\n",
		tun.Walks.WalksPerRound, tun.Walks.WalkLength,
		tun.Protocol.CommitteeSize, tun.Protocol.Period, tun.Protocol.TreeDepth)

	// Profiling brackets the simulated rounds, not setup or reporting.
	stopCPU := startCPUProfile(*cpuProfile)

	nw.Run(nw.WarmupRounds())

	data := make(map[uint64][]byte, *items)
	for i := 0; i < *items; i++ {
		key := uint64(100 + i)
		buf := make([]byte, *itemLen)
		for j := range buf {
			buf[j] = byte(key + uint64(j))
		}
		data[key] = buf
		nw.Store((i*131)%*n, key, buf)
	}
	nw.Run(tun.Protocol.Period + 4)

	// Issue searches spread over the run, then complete the horizon.
	perWave := *searches / 4
	if perWave == 0 {
		perWave = 1
	}
	issued := 0
	var results []dynp2p.Result
	for issued < *searches && nw.Round() < *rounds {
		for i := 0; i < perWave && issued < *searches; i++ {
			key := uint64(100 + issued%*items)
			nw.Retrieve((issued*211+13)%*n, key, data[key])
			issued++
		}
		nw.Run(tun.Protocol.SearchTTL + 4)
		results = append(results, nw.Results()...)
	}
	if remaining := *rounds - nw.Round(); remaining > 0 {
		nw.Run(remaining)
	}
	results = append(results, nw.Results()...)
	stopCPU()
	writeHeapProfile(*memProfile)

	ok := 0
	var lats []float64
	for _, r := range results {
		if r.Success {
			ok++
			lats = append(lats, float64(r.Found-r.Start))
		}
	}
	fmt.Printf("\nretrievals: %d issued, %d completed, %d succeeded (%.1f%%)\n",
		issued, len(results), ok, 100*float64(ok)/float64(max(1, len(results))))
	if len(lats) > 0 {
		sm := stats.Summarize(lats)
		fmt.Printf("latency (rounds to locate): p50=%.0f p95=%.0f max=%.0f\n", sm.Median, sm.P95, sm.Max)
	}

	fmt.Println("\nper-item state at end:")
	for i := 0; i < *items; i++ {
		key := uint64(100 + i)
		fmt.Printf("  item %d: copies=%d landmarks=%d committee=%d\n",
			key, nw.CopyCount(key), nw.LandmarkCount(key), nw.CommitteeSize(key))
	}

	st := nw.Stats()
	fmt.Printf("\ntraffic: %.1f bits/node/round mean, %d bits max per node-round\n",
		float64(st.Engine.BitsSent)/float64(*n)/float64(st.Engine.Rounds),
		st.Engine.MaxNodeBitsRound)
	fmt.Printf("soup: generated=%d completed=%d died=%d (survival %.1f%%)\n",
		st.Soup.Generated, st.Soup.Completed, st.Soup.Died,
		100*float64(st.Soup.Completed)/float64(max(int64(1), st.Soup.Completed+st.Soup.Died+st.Soup.Overdue)))
	fmt.Printf("committees: %d created, %d handovers (%d by fallback leaders), %d resignations\n",
		st.Proto.CommitteesCreated, st.Proto.Handovers, st.Proto.FallbackHandovers, st.Proto.Resignations)
	if *idaK > 0 {
		fmt.Printf("erasure: %d handover re-dispersals, %d items lost to piece shortage\n",
			st.Proto.IDARecoded, st.Proto.IDALost)
	}
	fmt.Printf("churn: %d replacements over %d rounds\n", st.Engine.Replacements, st.Engine.Rounds)
}

func fmtF(v float64) string { return fmt.Sprintf("%g", v) }

// startCPUProfile begins CPU profiling to path ("" = no-op) and returns
// the stop function.
func startCPUProfile(path string) func() {
	if path == "" {
		return func() {}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}
}

// writeHeapProfile writes a post-GC heap profile to path ("" = no-op).
func writeHeapProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	runtime.GC() // settle the heap so the profile shows live memory
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	f.Close()
}
