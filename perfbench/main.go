// Command perfbench is dynp2p's end-to-end benchmark. It drives one
// workload through the dynp2p facade — open-loop Poisson stores and
// retrievals with Zipf key popularity, generated from --seed — checks the
// run's outputs and conservation laws, and prints its metrics as one JSON
// object on the last line of standard output.
//
//	perfbench --workload steady-oracle --seed 1 --seconds 20 --trace 0
//
// A set is a fixed number of trials, each a fresh network whose seed is
// derived from --seed; sets repeat until --seconds have passed. Counts
// and latencies in rounds come from the first set and must repeat exactly
// in every later one; times are medians over sets. With --trace 0 the run
// reports the end-to-end metrics of untraced sets (profiler and tracer
// off). With --trace 1 it alternates untraced sets with traced ones
// (round-phase profiler on, handler wrapped to tally each inbox by
// message kind), checks that both agree, and reports the per-layer
// metrics. Any failed check exits with status 1 and prints no result.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// setup_s is the median of at least minSetups set-ups, more while their
// total is under setupBudget (set-up takes milliseconds at small n).
const (
	minSetups   = 5
	maxSetups   = 200
	setupBudget = 2 * time.Second
)

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "seed of the arrival stream and the simulation")
	seconds := fs.Int("seconds", 20, "measure for at least this many seconds (at least one set)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced trials")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		if err == nil {
			err = errors.New("--seconds must be at least 1 and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: check failed: %v\n", w.name, *seed, err)
		return 1
	}
	detail, err := json.Marshal(res.detail)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", detail, line)
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the run's context, printed before the result line: the host,
// how each operation ended, and (traced runs) the per-kind delivered
// table.
type detail struct {
	Workload   string           `json:"workload"`
	Seed       uint64           `json:"seed"`
	Trace      bool             `json:"trace"`
	Trials     int              `json:"trials"` // networks per set
	Sets       int              `json:"sets"`   // sets run
	Host       host             `json:"host"`
	Retrievals map[string]int   `json:"retrievals"`
	Stores     map[string]int   `json:"stores"`
	Delivered  map[string]int64 `json:"delivered_by_kind,omitempty"`
	// Wall holds wall-clock counterparts of the CPU-time metrics
	// (untraced runs): what a user waits for, but on a shared host they
	// also move with CPU steal and neighbours' load.
	Wall map[string]float64 `json:"wall,omitempty"`
}

type measurement struct {
	detail detail
	result result
}

// set is one trial per trial seed of a run, in trial order.
type set []*trial

func runSet(w workload, seed uint64, traced bool) (set, error) {
	s := make(set, w.trials)
	for k := range s {
		t, err := runTrial(w, trialSeed(seed, k), traced)
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", k, err)
		}
		s[k] = t
	}
	return s, nil
}

// total sums the counts of the set's outcomes; the Stats snapshots stay
// zero.
func (s set) total() outcome {
	var o outcome
	for _, t := range s {
		c := &t.out
		o.issued += c.issued
		o.ok += c.ok
		o.failed += c.failed
		o.lost += c.lost
		o.unresolved += c.unresolved
		o.skipped += c.skipped
		o.cacheHits += c.cacheHits
		o.stores += c.stores
		o.settled += c.settled
		o.retained += c.retained
		o.rounds += c.rounds
	}
	return o
}

// Speed figures of a set: its rounds or verified retrievals over its
// summed window time, and quantiles of its pooled per-round times.
func roundsPerS(s set) float64 {
	return float64(s.total().rounds) / s.seconds(func(t *trial) time.Duration { return t.window.wall })
}

func roundsPerCPUS(s set) float64 {
	return float64(s.total().rounds) / s.seconds(func(t *trial) time.Duration { return t.window.cpu })
}

func retrievalsPerS(s set) float64 {
	return float64(s.total().ok) / s.seconds(func(t *trial) time.Duration { return t.window.wall })
}

func retrievalsPerCPUS(s set) float64 {
	return float64(s.total().ok) / s.seconds(func(t *trial) time.Duration { return t.window.cpu })
}

func roundMS(q float64) func(set) float64 {
	return func(s set) float64 { return s.msQuantile(func(t *trial) []int64 { return t.roundNS }, q) }
}

func roundCPUMS(q float64) func(set) float64 {
	return func(s set) float64 { return s.msQuantile(func(t *trial) []int64 { return t.cpuNS }, q) }
}

func (s set) seconds(d func(*trial) time.Duration) float64 {
	var sum time.Duration
	for _, t := range s {
		sum += d(t)
	}
	return sum.Seconds()
}

func (s set) msQuantile(ns func(*trial) []int64, q float64) float64 {
	var ms []float64
	for _, t := range s {
		for _, v := range ns(t) {
			ms = append(ms, float64(v)/1e6)
		}
	}
	return quantile(ms, q)
}

// overSets is the median of f over sets.
func overSets(sets []set, f func(set) float64) float64 {
	vs := make([]float64, len(sets))
	for i, s := range sets {
		vs[i] = f(s)
	}
	return median(vs)
}

// measure runs sets of trials of w at seed until budget has passed and
// derives the run's metrics. Every set must reproduce the first one's
// outcomes exactly: same trial seeds, same simulations, traced or not.
func measure(w workload, seed uint64, budget time.Duration, traced bool) (*measurement, error) {
	var plain, tracedSets []set
	start := time.Now()
	for len(plain) == 0 || time.Since(start) < budget {
		s, err := runSet(w, seed, false)
		if err != nil {
			return nil, err
		}
		plain = append(plain, s)
		if traced {
			if s, err = runSet(w, seed, true); err != nil {
				return nil, err
			}
			tracedSets = append(tracedSets, s)
		}
	}
	for _, s := range append(plain[1:], tracedSets...) {
		for k, t := range s {
			want := plain[0][k]
			if t.out != want.out || !slices.Equal(t.locate, want.locate) || !slices.Equal(t.complete, want.complete) {
				return nil, fmt.Errorf("trial %d diverged from its first run at the same seed", k)
			}
		}
	}
	o := plain[0].total()
	m := &measurement{
		detail: detail{
			Workload: w.name, Seed: seed, Trace: traced, Trials: len(plain[0]), Sets: len(plain),
			Host: hostInfo(),
			Retrievals: map[string]int{
				"issued": o.issued, "ok": o.ok, "failed": o.failed, "lost": o.lost,
				"unresolved": o.unresolved, "skipped": o.skipped, "cache_hits": o.cacheHits,
			},
			Stores: map[string]int{"issued": o.stores, "settled": o.settled, "retained": o.retained},
		},
		result: result{
			Correct:   true,
			Attempted: o.issued + o.stores,
			Failed:    o.issued - o.ok + o.stores - o.retained,
			Metrics:   map[string]metric{},
		},
	}
	if traced {
		m.detail.Delivered = map[string]int64{}
		for _, t := range tracedSets[0] {
			for i, k := range kinds {
				m.detail.Delivered[k.name] += t.layers.delivered[i]
			}
			m.detail.Delivered["other"] += t.layers.delivered[other]
		}
		addLayerMetrics(m.result.Metrics, plain, tracedSets)
		return m, nil
	}
	var setups []span
	var total time.Duration
	for _, s := range plain {
		for _, t := range s {
			setups = append(setups, t.setup)
			total += t.setup.wall
		}
	}
	for len(setups) < minSetups || (total < setupBudget && len(setups) < maxSetups) {
		runtime.GC()
		_, d := setUp(w, trialSeed(seed, 0), false)
		setups = append(setups, d)
		total += d.wall
	}
	setupCPU := make([]float64, len(setups))
	setupWall := make([]float64, len(setups))
	for i, d := range setups {
		setupCPU[i], setupWall[i] = d.cpu.Seconds(), d.wall.Seconds()
	}
	addEndToEndMetrics(m.result.Metrics, w, plain, median(setupCPU))
	m.detail.Wall = map[string]float64{
		"setup_s":          median(setupWall),
		"rounds_per_s":     overSets(plain, roundsPerS),
		"retrievals_per_s": overSets(plain, retrievalsPerS),
		"round_ms_p50":     overSets(plain, roundMS(0.50)),
		"round_ms_p95":     overSets(plain, roundMS(0.95)),
	}
	return m, nil
}

// addEndToEndMetrics fills in the metrics a user of the system sees.
// Times are medians over sets; everything else is deterministic and taken
// over the first set's trials.
func addEndToEndMetrics(dst map[string]metric, w workload, sets []set, setupS float64) {
	first := sets[0]
	o := first.total()
	var msgs, hops, bits float64
	var locate, complete []int
	for _, t := range first {
		d := delta(t.out.start, t.out.end)
		msgs += float64(d.Engine.MsgsSent)
		// Link hops: every routed forward, plus one per message the
		// oracle delivered over a direct link.
		hops += float64(d.Route.Forwards + d.Engine.MsgsDelivered - d.Route.Delivered)
		bits += float64(d.Engine.BitsSent)
		locate = append(locate, t.locate...)
		complete = append(complete, t.complete...)
	}
	issued := float64(o.issued)
	dst["setup_s"] = metric{setupS, "s"}
	dst["rounds_per_cpu_s"] = metric{overSets(sets, roundsPerCPUS), "1/cpu-s"}
	dst["retrievals_per_cpu_s"] = metric{overSets(sets, retrievalsPerCPUS), "1/cpu-s"}
	dst["round_cpu_ms_p50"] = metric{overSets(sets, roundCPUMS(0.50)), "cpu-ms"}
	dst["round_cpu_ms_p95"] = metric{overSets(sets, roundCPUMS(0.95)), "cpu-ms"}
	dst["retrieve_success"] = metric{ratio(float64(o.ok), issued), "ratio"}
	dst["locate_rounds_p50"] = metric{roundQuantile(locate, 0.50), "rounds"}
	dst["complete_rounds_p50"] = metric{roundQuantile(complete, 0.50), "rounds"}
	dst["complete_rounds_p90"] = metric{roundQuantile(complete, 0.90), "rounds"}
	dst["msgs_per_retrieval"] = metric{ratio(msgs, issued), "msgs"}
	dst["hops_per_retrieval"] = metric{ratio(hops, issued), "hops"}
	dst["bits_per_node_round"] = metric{bits / float64(w.cfg.N) / float64(o.rounds), "bits"}
	dst["items_retained"] = metric{float64(o.retained) / float64(len(first)), "count"}
	// Garbage awaiting collection only ever adds to a trial's peak, so
	// the smallest peak is the steadiest reading of what a network needs.
	rss := math.Inf(1)
	for _, s := range sets {
		for _, t := range s {
			rss = math.Min(rss, t.peakRSSMB)
		}
	}
	dst["peak_rss_mb"] = metric{rss, "MB"}
}

// addLayerMetrics fills in the per-layer metrics, medians over traced
// sets of the sums over each set's trials, plus the traced-versus-untraced
// throughput difference.
func addLayerMetrics(dst map[string]metric, plain, traced []set) {
	samples := map[string][]float64{}
	for _, s := range traced {
		raw := map[string]float64{}
		var maxLink int64
		for _, t := range s {
			for k, v := range layerRaw(t) {
				raw[k] += v
			}
			maxLink = max(maxLink, t.out.end.Route.MaxLinkLoad)
		}
		for k, v := range layerMetrics(raw, maxLink) {
			samples[k] = append(samples[k], v)
		}
	}
	for k, vs := range samples {
		dst[k] = metric{median(vs), layerUnit(k)}
	}
	const overhead = "telemetry.trace_overhead_pct"
	dst[overhead] = metric{100 * (1 - overSets(traced, roundsPerCPUS)/overSets(plain, roundsPerCPUS)), layerUnit(overhead)}
}

// layerUnit is the unit of a per-layer metric, by naming convention.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms/round"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	case strings.HasSuffix(name, "_per_retrieval"):
		return "1/retrieval"
	case strings.HasSuffix(name, "_ratio"), strings.HasSuffix(name, ".survival"):
		return "ratio"
	case strings.HasSuffix(name, "bits_sent"):
		return "bits"
	}
	return "count"
}
