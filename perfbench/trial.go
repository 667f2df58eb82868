package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"

	"dynp2p"
)

// outcome holds a trial's deterministic counts. With the trial's latency
// samples it is a pure function of (workload, trial seed, shard count),
// so two trials at one seed — traced or not — must agree exactly.
type outcome struct {
	// Retrievals issued in the window and how each ended: ok (verified
	// bytes), failed (expired), lost (searcher churned out), unresolved
	// (issuer alive, never reported). skipped counts arrivals that found
	// no readable key yet or no idle issuer.
	issued, ok, failed, lost, unresolved, skipped int
	cacheHits                                     int
	// Stores issued, those that settled (max(1, K) copies within
	// settleRounds; only settled keys are read), and settled keys still
	// holding max(1, K) copies at the end.
	stores, settled, retained int
	rounds                    int // window rounds: phases plus drain
	// start and end are the facade's Stats at the window's edges;
	// inFlight is the router's in-flight count at the end.
	start, end dynp2p.Stats
	inFlight   int
}

// trial is one simulated run on a fresh network: set-up (New plus
// warm-up), then the workload window.
type trial struct {
	out              outcome
	locate, complete []int // per successful retrieval, in rounds, sorted
	// Set-up and window times, wall clock and process CPU (user +
	// system, all threads; it excludes time the host stole from this
	// machine). The window includes the driver's own bookkeeping.
	setup, window  span
	roundNS, cpuNS []int64      // wall and CPU time of each window round
	peakRSSMB      float64      // peak resident set of the trial
	layers         *layerSample // traced trials only
}

// network is a set-up network ready for the window: step advances one
// round, through the facade (untraced) or through the tallying handler.
type network struct {
	nw    *dynp2p.Network
	step  func()
	tally *tallyHandler
}

// setUp builds the workload's network at seed and runs the soup warm-up.
func setUp(w workload, seed uint64, traced bool) (*network, span) {
	cfg := w.cfg
	cfg.Seed = seed
	cfg.Workers = workers()
	cfg.Shards = shards
	cfg.Profile = traced
	start := now()
	nw := dynp2p.New(cfg)
	n := &network{nw: nw, step: func() { nw.Run(1) }}
	if traced {
		n.tally = newTallyHandler(nw)
		e := nw.Engine()
		n.step = func() { e.RunRound(n.tally) }
	}
	for i := nw.WarmupRounds(); i > 0; i-- {
		n.step()
	}
	return n, start.since()
}

// workers is the simulation's worker count: every core, at most two, so
// runs on larger hosts measure the same parallelism.
func workers() int { return min(2, runtime.NumCPU()) }

// trialSeed derives the seed of a run's k-th trial from the run seed.
func trialSeed(seed uint64, k int) uint64 {
	return rand.New(rand.NewPCG(seed, uint64(k))).Uint64()
}

// settleRounds is how long a store may take to reach max(1, K) copies
// before it counts as failed (its issuer typically left before acting).
const settleRounds = 8

// reqKey identifies an active retrieval: one per (node, key).
type reqKey struct {
	id  dynp2p.NodeID
	key uint64
}

type pendingStore struct {
	key    uint64
	issued int // round
}

// driver feeds a workload's arrivals to the facade and books every
// operation's fate.
type driver struct {
	w       workload
	nw      *dynp2p.Network
	arr     *rand.Rand // arrival stream: counts, issuers, key ranks
	seed    uint64
	cdf     []float64 // Zipf cumulative weights over key ranks
	minCopy int       // copies a stored key needs: max(1, K)

	nextKey     int
	payload     map[uint64][]byte // key -> stored bytes
	pending     []pendingStore    // issued, not yet settled
	readable    []uint64          // settled keys in settle order (rank 0 first)
	outstanding map[reqKey]bool

	out              outcome
	locate, complete []int
}

// runTrial sets up a network at seed and drives the workload window
// through it, checking the run's invariants as it goes.
func runTrial(w workload, seed uint64, traced bool) (*trial, error) {
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	net, setup := setUp(w, seed, traced)
	nw := net.nw
	d := &driver{
		w: w, nw: nw, seed: seed,
		arr:         rand.New(rand.NewPCG(seed, 0x6172726976616c73)), // "arrivals"
		cdf:         zipfCDF(w.keys, w.zipfS),
		minCopy:     max(1, w.cfg.ErasureK),
		payload:     make(map[uint64][]byte, w.keys),
		outstanding: make(map[reqKey]bool),
	}
	tr := &trial{setup: setup}
	var before layerCounters
	if traced {
		before = readLayerCounters(nw, net.tally)
	}
	d.out.start = nw.Stats()
	T := nw.Tunables().Walks.WalkLength
	drain := nw.Tunables().Protocol.SearchTTL + 4

	begin := now()
	runRounds := func(rounds int, p phase) error {
		for i := 0; i < rounds; i++ {
			if err := d.issue(p); err != nil {
				return err
			}
			t0 := now()
			net.step()
			r := t0.since()
			tr.roundNS = append(tr.roundNS, int64(r.wall))
			tr.cpuNS = append(tr.cpuNS, int64(r.cpu))
			if err := d.collect(); err != nil {
				return err
			}
		}
		return nil
	}
	for _, p := range w.phases {
		if p.cache != nil {
			nw.SetCache(*p.cache)
		}
		if err := runRounds(p.units*T, p); err != nil {
			return nil, err
		}
	}
	if err := runRounds(drain, phase{}); err != nil {
		return nil, err
	}
	tr.window = begin.since()

	// Retrievals still outstanding never reported although their issuer
	// is alive.
	d.out.unresolved = len(d.outstanding)
	d.out.rounds = len(tr.roundNS)
	for _, key := range d.readable {
		if nw.CopyCount(key) >= d.minCopy {
			d.out.retained++
		}
	}
	d.out.end = nw.Stats()
	d.out.inFlight = nw.Engine().RoutedInFlight()
	// Results() lists a round's completions in the order the handler's
	// workers finished, which varies run to run; the samples are compared
	// as sorted multisets.
	slices.Sort(d.locate)
	slices.Sort(d.complete)
	tr.out, tr.locate, tr.complete = d.out, d.locate, d.complete
	var err error
	if tr.peakRSSMB, err = peakRSSMB(); err != nil {
		return nil, err
	}
	if err := checkOutcome(&tr.out); err != nil {
		return nil, err
	}
	if traced {
		tr.layers = newLayerSample(before, readLayerCounters(nw, net.tally), tr.roundNS)
		if err := tr.layers.check(&tr.out); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// checkOutcome asserts the conservation laws every trial must satisfy.
func checkOutcome(o *outcome) error {
	if got := o.ok + o.failed + o.lost + o.unresolved; got != o.issued {
		return fmt.Errorf("retrievals: issued %d != ok %d + failed %d + lost %d + unresolved %d",
			o.issued, o.ok, o.failed, o.lost, o.unresolved)
	}
	r := o.end.Route
	drops := r.DroppedBudget + r.DroppedQueueFull + r.DroppedChurn + r.DroppedDead
	if r.Sent != r.Delivered+drops+int64(o.inFlight) {
		return fmt.Errorf("router: sent %d != delivered %d + drops %d + in-flight %d",
			r.Sent, r.Delivered, drops, o.inFlight)
	}
	return nil
}

// issue draws this round's Poisson arrivals and hands them to the facade.
// Stores take the universe's keys in order; retrievals pick a settled key
// by Zipf rank (readers only look up keys whose store completed).
func (d *driver) issue(p phase) error {
	for i := poisson(d.arr, p.storeRate); i > 0 && d.nextKey < d.w.keys; i-- {
		key := uint64(100 + d.nextKey)
		d.nextKey++
		data := itemBytes(d.seed, key)
		d.payload[key] = data
		d.pending = append(d.pending, pendingStore{key: key, issued: d.nw.Round()})
		d.nw.Store(d.oldSlot(), key, data)
		d.out.stores++
	}
	for i := poisson(d.arr, p.retrieveRate); i > 0; i-- {
		if len(d.readable) == 0 {
			d.out.skipped++
			continue
		}
		key := d.readable[zipfRank(d.arr, d.cdf[:len(d.readable)])]
		expect := d.payload[key]
		if expect == nil {
			return fmt.Errorf("retrieval of key %d issued without its expected bytes", key)
		}
		placed := false
		for try := 0; try < 8 && !placed; try++ {
			slot := d.arr.IntN(d.nw.N())
			rk := reqKey{id: d.nw.IDAt(slot), key: key}
			if d.outstanding[rk] {
				continue
			}
			d.outstanding[rk] = true
			d.nw.Retrieve(slot, key, expect)
			placed = true
		}
		if placed {
			d.out.issued++
		} else {
			d.out.skipped++
		}
	}
	return nil
}

// collect books the round's settled stores and completed retrievals, then
// the retrievals whose searcher was churned out (departed nodes report
// nothing).
func (d *driver) collect() error {
	kept := d.pending[:0]
	for _, ps := range d.pending {
		switch {
		case d.nw.CopyCount(ps.key) >= d.minCopy:
			d.readable = append(d.readable, ps.key)
			d.out.settled++
		case d.nw.Round()-ps.issued < settleRounds:
			kept = append(kept, ps)
		}
	}
	d.pending = kept
	for _, res := range d.nw.Results() {
		rk := reqKey{id: res.Searcher, key: res.Key}
		if !d.outstanding[rk] {
			return fmt.Errorf("result for a retrieval never issued: node %d key %d", res.Searcher, res.Key)
		}
		delete(d.outstanding, rk)
		switch {
		case res.Success:
			if want := len(d.payload[res.Key]); res.Bytes != want {
				return fmt.Errorf("key %d: verified retrieval returned %d bytes, want %d", res.Key, res.Bytes, want)
			}
			d.out.ok++
			if res.Cached {
				d.out.cacheHits++
			}
			if res.Found >= 0 {
				d.locate = append(d.locate, res.Found-res.Start)
			}
			d.complete = append(d.complete, res.Done-res.Start)
		case res.Done >= 0:
			// Completed without verifying: the bytes differ from what
			// was stored.
			return fmt.Errorf("key %d: retrieval by node %d returned wrong bytes", res.Key, res.Searcher)
		default:
			d.out.failed++
		}
	}
	for rk := range d.outstanding {
		if !d.nw.IsLive(rk.id) {
			delete(d.outstanding, rk)
			d.out.lost++
		}
	}
	return nil
}

// oldSlot returns the oldest of four random slots: stores come from
// long-lived nodes, whose storage the paper's Theorem 3 guarantees.
func (d *driver) oldSlot() int {
	e := d.nw.Engine()
	best := d.arr.IntN(d.nw.N())
	for i := 0; i < 3; i++ {
		if s := d.arr.IntN(d.nw.N()); e.JoinRound(s) < e.JoinRound(best) {
			best = s
		}
	}
	return best
}

// itemBytes is the 128-byte payload stored under key.
func itemBytes(seed, key uint64) []byte {
	r := rand.New(rand.NewPCG(seed, key))
	b := make([]byte, 128)
	for i := range b {
		b[i] = byte(r.Uint32())
	}
	return b
}

// poisson draws a Poisson(lambda) count (Knuth's method; the per-round
// rates here are small).
func poisson(r *rand.Rand, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	l := math.Exp(-lambda)
	k, p := 0, r.Float64()
	for p > l {
		k++
		p *= r.Float64()
	}
	return k
}

// zipfCDF returns the cumulative Zipf(s) weights of ranks 0..k-1.
func zipfCDF(k int, s float64) []float64 {
	cdf := make([]float64, k)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	return cdf
}

// zipfRank draws a rank from the Zipf distribution restricted to the
// ranks cdf covers.
func zipfRank(r *rand.Rand, cdf []float64) int {
	u := r.Float64() * cdf[len(cdf)-1]
	for i, c := range cdf {
		if u < c {
			return i
		}
	}
	return len(cdf) - 1
}
