package walks

// The lazy trajectory evaluator is the uncapped soup's store (NewSoup
// picks it whenever ForwardCap == 0, the paper's default). With no
// forwarding cap no token is ever deferred, so a
// walk's entire T-step trajectory is a pure function of its identity
// (src, birth, serial), the evolving topology, and the churn record: the
// per-round staged exchange can be deleted outright. Instead of moving
// every in-flight token every round, StepRound records only the round's
// inputs in a (T+2)-deep ring (churn itself lives in the engine's bounded
// ReplacedInRound history), and replays one birth cohort's full
// trajectory at its delivery round birth+T-1, with per-step death checks
// against the ring. Fresh cohorts need no storage at all: every live slot
// mints WalksPerRound implicit walks, and Inject records explicit extras;
// a cohort's tokens are materialized once, at delivery, and their buffer
// is recycled.
//
// The ring is DELTA-ENCODED (DESIGN.md §9). A ring entry does not hold
// the round's full n·d adjacency snapshot; it holds the round's port
// rewires, drained from the graph's change journal — O(churn·d) entries
// per round under incremental topologies (self-healing, static), which
// is what makes n ≥ 2²⁰ rings fit in memory. Rounds whose topology was
// bulk-rewritten (the Rerandomize oracle, an over-limit churn burst) are
// recorded as full snapshots instead, so the oracle modes degrade to the
// old cost rather than breaking. Three materialized rows navigate the
// ring:
//
//   - tailRow: the adjacency at the ring's oldest still-needed round,
//     advanced forward one round per delivery (and aliasing a snapshot
//     entry outright when one is on file for the tail round).
//   - repRow: the replay scratch row, stepped forward through the ring
//     by applying each round's deltas — or backward by unapplying them,
//     deltas being reversible — as cohort replays demand rows.
//   - tailIds/idRow: the same scheme for the per-round occupant-id
//     table, whose per-round delta is exactly the churned slots.
//
// Replay is round-major at every worker count: all shards step a cohort
// through round r against the one materialized row, then a barrier
// advances the row to r+1 (its last-arriver callback applies the deltas
// serially). Shard-major replay died with the snapshots — there is no
// longer a per-round row to read at random.
//
// Two parts are retrospective and make the representation exact, not
// approximate:
//
//   - Serial continuation. A slot's fresh walks continue serials from its
//     stored-survivor count (as in store.go's scatter), which depends
//     on where every older cohort's tokens sit at the birth round. Each
//     cohort's replay therefore increments the NEXT round's arrival
//     table as tokens land; cohort b-1 delivers (and finishes writing
//     arrive[b]) one round before cohort b is created, so the serial
//     bases are always complete exactly when they are needed.
//   - Metrics and introspection. Queries (Metrics, TokensAt, TotalTokens,
//     AppendTokens, Inject) force every in-flight cohort's partial
//     trajectory up to the last stepped round, caching per-cohort
//     positions and resuming at delivery, so an event is counted iff its
//     round has run — bit-identical at any query pattern and any worker
//     count. The no-query hot path never pays for any of this.
//
// Overdue is identically zero here: an undeferred token steps every
// round, so its age never exceeds WalkLength-1, and NewSoup clamps
// Deadline up to WalkLength.

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"dynp2p/internal/graph"
	"dynp2p/internal/shard"
	"dynp2p/internal/simnet"
)

// replayTok is one cached live token of a partially-evaluated cohort:
// the step-hash identity plus the current slot. 16 bytes, updated in
// place — replay is a single sequential stream per shard.
type replayTok struct {
	idser uint64 // src<<16 | serial
	birth int32  // birth round (normally the cohort round; Inject may differ)
	pos   int32  // slot the token occupies after the evalRound step
}

// injRec is one Inject call, recorded until its cohort is materialized.
type injRec struct {
	slot  int32
	count int32
	birth int32
	base  uint16 // serial base: the slot's stored count at inject time
	id    simnet.NodeID
}

// idDelta records one occupant change: slot's occupant became id in the
// entry's round. Applied forward in ring order these transform one
// round's id table into the next — churn is the only occupant writer.
type idDelta struct {
	slot int32
	id   simnet.NodeID
}

// lazyRound is one ring entry of recorded round inputs: the round's
// adjacency TRANSITION (deltas from the previous round's row, or a full
// snapshot when the interval was disrupted) plus the round's occupant
// changes.
type lazyRound struct {
	round     int32 // validity tag; -1 = empty
	anyChurn  bool
	disrupted bool              // snap holds the round's full row; deltas void
	deltas    []graph.PortDelta // row(round-1) → row(round), when !disrupted
	snap      []int32           // full n·d row, allocated on first disruption
	idDeltas  []idDelta         // occupant changes in this round (churned slots)
}

// lazyCohort tracks one birth cohort's evaluation state. Its token
// buffers live per birth shard in soupShard.lzToks.
type lazyCohort struct {
	round     int32 // birth round; -1 = empty
	evalRound int32 // replayed through this round (== round-1 at creation)
	created   bool
	delivered bool
	inj       []injRec
}

// lazySoup is the store-wide lazy state hanging off Soup.lz.
type lazySoup struct {
	T     int // WalkLength: trajectory length and delivery offset
	depth int // ring depth, T+2: covers every input a replay can need
	d     int // topology degree
	eng   *simnet.Engine

	firstRound, lastRound int // first/last round stepped; -1 before any

	rounds  []lazyRound
	arrives [][]int32 // arrives[r%depth][slot]: tokens stored at slot at round r
	cohorts []lazyCohort
	pending []injRec // injections for the next stepped round

	// Adjacency cursors over the delta ring (see the package comment).
	tailRound int     // oldest round any future replay can need
	tailRow   []int32 // row(tailRound); aliases a ring snap when tailOwn is false
	tailOwn   bool
	tailBuf   []int32 // tailRow's owned backing store
	repRound  int     // round repRow holds; -1 = unset
	repRow    []int32 // replay scratch row, stepped through the ring by deltas

	// Occupant-id cursors, same discipline (ids are never disrupted:
	// churn is their only writer and it is always incremental).
	tailIds []simnet.NodeID // ids at tailRound
	idRound int             // round idRow holds; -1 = unset
	idRow   []simnet.NodeID

	bar *shard.Barrier // round-major replay barrier, reused across advances

	// atomicArrive: with >1 workers, shards replay concurrently and land
	// tokens on arbitrary slots, so arrival-count increments go through
	// atomics; counts are additive, so the sums — and everything derived
	// from them — are identical at every worker count.
	atomicArrive bool
	countsOK     bool // per-shard counts caches reflect current state

	// mu serializes query-time forcing and the counts refresh (lzSync),
	// so TokensAt/Metrics stay safe to call concurrently.
	mu sync.Mutex
}

// newLazySoup builds the ring. Cursor rows and per-round tables are
// allocated up front; per-round delta lists and snapshot fallbacks grow
// on demand (a steady incremental topology never allocates a snapshot
// beyond the first round's).
func newLazySoup(e *simnet.Engine, s *Soup) *lazySoup {
	T := s.p.WalkLength
	depth := T + 2
	n, d := s.n, e.Degree()
	lz := &lazySoup{
		T: T, depth: depth, d: d, eng: e,
		firstRound: -1, lastRound: -1,
		tailRound: -1, repRound: -1, idRound: -1,
		atomicArrive: s.workers > 1,
		rounds:       make([]lazyRound, depth),
		arrives:      make([][]int32, depth),
		cohorts:      make([]lazyCohort, depth),
		tailBuf:      make([]int32, n*d),
		repRow:       make([]int32, n*d),
		tailIds:      make([]simnet.NodeID, 0, n),
		idRow:        make([]simnet.NodeID, 0, n),
		bar:          shard.NewBarrier(1),
	}
	for i := range lz.rounds {
		lz.rounds[i].round = -1
		lz.arrives[i] = make([]int32, n)
		lz.cohorts[i].round = -1
	}
	for i := range s.shards {
		s.shards[i].lzToks = make([][]replayTok, depth)
	}
	// The ring consumes the graph's change journal: every incremental
	// rewire between soup observations becomes one 12-byte delta; bulk
	// rewrites surface as drain-time disruptions. The limit keeps a
	// worst-case round's delta bytes well under snapshot cost.
	e.Graph().EnableJournal(n * d / 8)
	// Replays need exact per-round death checks for up to T rounds back,
	// beyond what the engine's latest-occupancy record can answer.
	e.RetainReplacedHistory(depth)
	return lz
}

// entry returns the ring entry for round r, panicking if the ring no
// longer (or does not yet) cover it — every caller's round arithmetic is
// bounded by depth, so a miss is a bug, not a condition.
func (lz *lazySoup) entry(r int) *lazyRound {
	e := &lz.rounds[r%lz.depth]
	if int(e.round) != r {
		panic("walks: lazy ring does not cover the requested round")
	}
	return e
}

// rowAt materializes and returns the adjacency row of round target
// (tailRound <= target <= lastRound). Snapshot entries are returned
// aliased (zero copy — the Rerandomize oracle pays nothing it didn't
// pay with full-row rings). Delta entries step the repRow scratch
// forward from the nearest absolute anchor — or backward from where
// repRow already is, deltas being reversible, when that is cheaper than
// re-anchoring. The returned slice is read-only for callers and valid
// until the next rowAt/advanceTail call.
func (lz *lazySoup) rowAt(target int) []int32 {
	e := lz.entry(target)
	if e.disrupted {
		return e.snap
	}
	if lz.repRound == target {
		return lz.repRow
	}
	// Backward: unapply the intervening rounds' deltas when they are all
	// delta-encoded and collectively cheaper than a full-row copy.
	if lz.repRound > target {
		sum, ok := 0, true
		for r := lz.repRound; r > target; r-- {
			er := lz.entry(r)
			if er.disrupted {
				ok = false
				break
			}
			sum += len(er.deltas)
		}
		if ok && sum < len(lz.repRow)/2 {
			for r := lz.repRound; r > target; r-- {
				graph.UnapplyDeltas(lz.repRow, lz.entry(r).deltas)
			}
			lz.repRound = target
			return lz.repRow
		}
		lz.repRound = -1 // cheaper to re-anchor below
	}
	// Forward: anchor at the nearest absolute row at or below target —
	// repRow where it stands, a snapshot entry, or the tail row — then
	// apply each round's deltas up to target.
	anchor := -1
	var src []int32
	for r := target; r >= lz.tailRound; r-- {
		if r == lz.repRound {
			anchor, src = r, lz.repRow
			break
		}
		if er := lz.entry(r); er.disrupted {
			anchor, src = r, er.snap
			break
		}
		if r == lz.tailRound {
			anchor, src = r, lz.tailRow
			break
		}
	}
	if anchor < 0 {
		panic("walks: lazy ring cannot anchor an adjacency row")
	}
	if &src[0] != &lz.repRow[0] {
		copy(lz.repRow, src)
	}
	for r := anchor + 1; r <= target; r++ {
		graph.ApplyDeltas(lz.repRow, lz.entry(r).deltas)
	}
	lz.repRound = target
	return lz.repRow
}

// idsAt materializes the occupant-id table of round target
// (tailRound <= target <= lastRound), aliasing the tail table when the
// rounds coincide. Read-only for callers; valid until the next
// idsAt/advanceTail call.
func (lz *lazySoup) idsAt(target int) []simnet.NodeID {
	if target == lz.tailRound {
		return lz.tailIds
	}
	if lz.idRound == target {
		return lz.idRow
	}
	if lz.idRound < lz.tailRound || lz.idRound > target {
		lz.idRow = append(lz.idRow[:0], lz.tailIds...)
		lz.idRound = lz.tailRound
	}
	for r := lz.idRound + 1; r <= target; r++ {
		for _, ch := range lz.entry(r).idDeltas {
			lz.idRow[ch.slot] = ch.id
		}
	}
	lz.idRound = target
	return lz.idRow
}

// advanceTail moves the tail cursors forward to round to, applying each
// crossed round's deltas (or adopting its snapshot by reference). Called
// after a delivery retires the old tail round.
func (lz *lazySoup) advanceTail(to int) {
	for r := lz.tailRound + 1; r <= to; r++ {
		e := lz.entry(r)
		if e.disrupted {
			lz.tailRow, lz.tailOwn = e.snap, false
		} else {
			if !lz.tailOwn {
				copy(lz.tailBuf, lz.tailRow)
				lz.tailRow, lz.tailOwn = lz.tailBuf, true
			}
			graph.ApplyDeltas(lz.tailRow, e.deltas)
		}
		for _, ch := range e.idDeltas {
			lz.tailIds[ch.slot] = ch.id
		}
		lz.tailRound = r
	}
}

// stepLazy is the lazy store's StepRound: record the round's inputs
// (journal drain, id deltas), seat the round's cohort (identity only —
// no token state), replay the one cohort falling due, advance the tail
// cursors past the retired round, and publish the delivered samples.
func (s *Soup) stepLazy(e *simnet.Engine, round int) {
	lz := s.lz
	ri := round % lz.depth
	rr := &lz.rounds[ri]
	rr.round = int32(round)
	rr.anyChurn = round > 0 && len(e.ChurnedThisRound()) > 0
	// Adjacency transition: the drained change journal when the interval
	// was incremental, a full snapshot when it was disrupted (bulk
	// rewrite or over-limit churn).
	g := e.Graph()
	deltas, disrupted := g.DrainJournal()
	if disrupted {
		rr.disrupted = true
		if rr.snap == nil {
			rr.snap = make([]int32, s.n*lz.d)
		}
		copy(rr.snap, g.Adjacency())
	} else {
		rr.disrupted = false
		rr.deltas = append(rr.deltas[:0], deltas...)
	}
	// Occupant changes: the churned slots' fresh ids.
	rr.idDeltas = rr.idDeltas[:0]
	if rr.anyChurn {
		for _, slot := range e.ChurnedThisRound() {
			rr.idDeltas = append(rr.idDeltas, idDelta{slot: int32(slot), id: e.IDAt(int(slot))})
		}
	}
	if lz.firstRound < 0 {
		lz.firstRound = round
		lz.tailRound = round
		if rr.disrupted {
			lz.tailRow, lz.tailOwn = rr.snap, false
		} else {
			// The journal starts disrupted, so the first step's drain is a
			// snapshot in practice; anchor off the live graph regardless.
			copy(lz.tailBuf, g.Adjacency())
			lz.tailRow, lz.tailOwn = lz.tailBuf, true
		}
		lz.tailIds = e.LiveIDs(lz.tailIds[:0])
	}
	// arrive[round+1] starts accumulating this round (delivery landings
	// now, query-forced partial landings after); its ring slot's previous
	// tenant was last read at cohort creation T+1 rounds ago.
	arr := lz.arrives[(round+1)%lz.depth]
	for i := range arr {
		arr[i] = 0
	}
	coh := &lz.cohorts[ri]
	oldInj := coh.inj
	*coh = lazyCohort{round: int32(round), evalRound: int32(round - 1), inj: lz.pending}
	if oldInj != nil {
		oldInj = oldInj[:0]
	}
	lz.pending = oldInj
	for i := range s.shards {
		ss := &s.shards[i]
		for dsh := range ss.outSmp {
			ss.outSmp[dsh] = ss.outSmp[dsh][:0]
		}
	}
	lz.lastRound = round
	if c := round - lz.T + 1; c >= lz.firstRound {
		s.lzAdvance(c, round)
		ci := c % lz.depth
		for i := range s.shards {
			ss := &s.shards[i]
			if buf := ss.lzToks[ci]; buf != nil {
				ss.lzFree = append(ss.lzFree, buf[:0])
				ss.lzToks[ci] = nil
			}
		}
		lz.cohorts[ci].delivered = true
		// Round c's inputs are never read again: the tail moves on (capped
		// at the last recorded round — T = 1 delivers the round it records).
		lz.advanceTail(min(c+1, lz.lastRound))
	}
	s.gatherSamples()
	lz.countsOK = false
}

// gatherSamples rebuilds the per-shard sample stores from outSmp staging
// (the counting sort shared with the capped gather).
func (s *Soup) gatherSamples() {
	s.grid.Run(s.workers, func(dsh int) {
		s.gatherSamplesShard(&s.shards[dsh], dsh)
	})
}

// lzAdvance creates cohort b if needed and replays it through round to,
// folding the tallies into the soup metrics. Callers guarantee every
// older cohort has already been replayed through b-1 (StepRound delivers
// in birth order; lzSync forces in birth order), which is what makes the
// arrival tables — and so the serial bases — complete when read.
//
// Replay is round-major at every worker count: all shards step through
// round r against the one materialized adjacency row before any shard
// sees r+1. Inline this is just loop order; in parallel, workers claim
// shards from a cursor per round and a barrier separates rounds, its
// last-arriver callback advancing the shared row (and resetting the
// cursor) serially. Arrival updates are atomic and additive, so the
// result is bit-identical at every worker count.
func (s *Soup) lzAdvance(b, to int) {
	lz := s.lz
	coh := &lz.cohorts[b%lz.depth]
	if int(coh.round) != b {
		panic("walks: lazy cohort ring does not cover the requested round")
	}
	from := b
	if coh.created {
		if int(coh.evalRound) >= to {
			return
		}
		from = int(coh.evalRound) + 1
	}
	final := b + lz.T - 1
	nsh := len(s.shards)
	if wk := min(s.workers, nsh); wk == 1 {
		if !coh.created {
			ids := lz.idsAt(b)
			for sh := range s.shards {
				s.lzCreateShard(&s.shards[sh], b, ids)
			}
		}
		for r := from; r <= to; r++ {
			row := lz.rowAt(r)
			fin := r == final
			for sh := range s.shards {
				s.lzReplayShard(&s.shards[sh], b, r, fin, row)
			}
		}
	} else {
		var createIds []simnet.NodeID
		if !coh.created {
			createIds = lz.idsAt(b)
		}
		lz.bar.Reset(wk)
		var cursor atomic.Int64
		r := from
		curRow := lz.rowAt(from)
		body := func() {
			if createIds != nil {
				for {
					sh := int(cursor.Add(1) - 1)
					if sh >= nsh {
						break
					}
					s.lzCreateShard(&s.shards[sh], b, createIds)
				}
				lz.bar.Wait(func() { cursor.Store(0) })
			}
			for {
				cr, crow := r, curRow
				fin := cr == final
				for {
					sh := int(cursor.Add(1) - 1)
					if sh >= nsh {
						break
					}
					s.lzReplayShard(&s.shards[sh], b, cr, fin, crow)
				}
				if cr == to {
					lz.bar.Wait(nil)
					return
				}
				lz.bar.Wait(func() {
					cursor.Store(0)
					r = cr + 1
					curRow = lz.rowAt(r)
				})
			}
		}
		var wg sync.WaitGroup
		for w := 1; w < wk; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				body()
			}()
		}
		body()
		wg.Wait()
	}
	coh.created = true
	coh.evalRound = int32(to)
	for i := range s.shards {
		s.m.add(&s.shards[i].tally)
		s.shards[i].tally = Metrics{}
	}
}

// lzReplaced tests slot in a replacement bitset (nil = no churn).
func lzReplaced(death []uint64, slot int32) bool {
	return death != nil && death[uint32(slot)>>6]>>(uint32(slot)&63)&1 != 0
}

// lzCreateShard materializes cohort b's tokens born in ss's slots:
// recorded injections first (they were stored at their slot before the
// round began, so they die with a churned carrier and their survivors
// count toward the generation serial base), then one implicit fresh batch
// per slot, serials continuing from the slot's stored-survivor count —
// identical semantics to the capped scatter's generation. ids is the
// round-b occupant table materialized by the caller.
func (s *Soup) lzCreateShard(ss *soupShard, b int, ids []simnet.NodeID) {
	lz := s.lz
	ring := &lz.rounds[b%lz.depth]
	arrive := lz.arrives[b%lz.depth]
	coh := &lz.cohorts[b%lz.depth]
	var death []uint64
	if ring.anyChurn {
		death = lz.eng.ReplacedBitsInRound(b)
	}
	toks := ss.lzPop()
	var generated, died int64
	lo, hi := ss.lo, ss.hi
	hasInj := false
	for i := range coh.inj {
		in := &coh.inj[i]
		slot := int(in.slot)
		if slot < lo || slot >= hi {
			continue
		}
		if !hasInj {
			hasInj = true
			cur := ss.cursor
			for j := range cur {
				cur[j] = 0
			}
		}
		if lzReplaced(death, in.slot) {
			died += int64(in.count)
			continue
		}
		ss.cursor[slot-lo] += in.count
		idser := uint64(in.id) << 16
		for k := int32(0); k < in.count; k++ {
			toks = append(toks, replayTok{idser: idser | uint64(in.base+uint16(k)), birth: in.birth, pos: in.slot})
		}
	}
	if wpr := s.p.WalksPerRound; wpr > 0 {
		for slot := lo; slot < hi; slot++ {
			base := 0
			if !lzReplaced(death, int32(slot)) {
				base = int(arrive[slot])
				if hasInj {
					base += int(ss.cursor[slot-lo])
				}
			}
			// Same uint16-serial clamp as the capped scatter.
			gen := wpr
			if limit := 1<<16 - base; gen > limit {
				gen = max(limit, 0)
			}
			generated += int64(gen)
			if gen == 0 {
				continue
			}
			id := ids[slot]
			if uint64(id) >= maxSrcID {
				panic("walks: node id exceeds the packed staging range")
			}
			idser := uint64(id) << 16
			for k := 0; k < gen; k++ {
				toks = append(toks, replayTok{idser: idser | uint64(uint16(base+k)), birth: int32(b), pos: int32(slot)})
			}
		}
	}
	ss.lzToks[b%lz.depth] = toks
	ss.tally.Generated += generated
	ss.tally.Died += died
}

// lzReplayShard advances cohort b's tokens in ss by the single round r:
// per-step death check against the engine's replacement record, one
// step hash, one row load against the materialized round-r adjacency,
// and — for non-final rounds — one arrival increment at the landing
// slot. The step core matches store.go's scatter loops bit for bit.
func (s *Soup) lzReplayShard(ss *soupShard, b, r int, final bool, row []int32) {
	lz := s.lz
	ring := &lz.rounds[r%lz.depth]
	toks := ss.lzToks[b%lz.depth]
	if len(toks) == 0 {
		return
	}
	d := lz.d
	du := uint64(d)
	var death []uint64
	// At r == b every token is freshly minted (injected deaths were
	// resolved at creation), so only later rounds check for churn.
	if r > b && ring.anyChurn {
		death = lz.eng.ReplacedBitsInRound(r)
	}
	arr := lz.arrives[(r+1)%lz.depth]
	atomicArr := lz.atomicArrive
	lazyWalk := s.p.Lazy
	seed := s.seed
	slotLoc := s.slotLoc
	var died, moves, completed int64
	var pfSink int32
	w := 0
	for i := 0; i < len(toks); i++ {
		// The upcoming row access is random; touch it a few records ahead
		// so it hits L1 when its turn comes (the sink keeps the load live).
		if i+6 < len(toks) {
			pfSink += row[int(toks[i+6].pos)*d]
		}
		t := toks[i]
		if lzReplaced(death, t.pos) {
			died++
			continue
		}
		// Step core — keep in sync with scatter.
		h := stepHash(seed, r, simnet.NodeID(t.idser>>16), t.birth, uint16(t.idser))
		pos := t.pos
		if lazyStay := lazyWalk && h>>63 == 1; !lazyStay {
			if lazyWalk {
				h <<= 1
			}
			port, _ := bits.Mul64(h, du)
			pos = row[int(t.pos)*d+int(port)]
		}
		moves++
		if final {
			completed++
			loc := slotLoc[pos]
			dsh := loc >> shard.LocalBits
			ss.outSmp[dsh] = append(ss.outSmp[dsh], stagedSmp{
				loc: t.idser>>16<<shard.LocalBits | uint64(loc&localMask), birth: t.birth})
		} else {
			if atomicArr {
				atomic.AddInt32(&arr[pos], 1)
			} else {
				arr[pos]++
			}
			t.pos = pos
			toks[w] = t
			w++
		}
	}
	ss.lzToks[b%lz.depth] = toks[:w]
	ss.pfSink += uint32(pfSink)
	ss.tally.Died += died
	ss.tally.Moves += moves
	ss.tally.Completed += completed
}

// lzPop takes a recycled token buffer (empty, capacity retained) from
// the shard's pool; the no-query steady state keeps exactly one buffer
// in circulation per shard.
func (ss *soupShard) lzPop() []replayTok {
	if n := len(ss.lzFree); n > 0 {
		buf := ss.lzFree[n-1]
		ss.lzFree = ss.lzFree[:n-1]
		return buf
	}
	return make([]replayTok, 0, ss.lzCap)
}

// lzSync forces every in-flight cohort's evaluation up to the last
// stepped round (and optionally refreshes the per-slot count caches),
// serialized so concurrent protocol handlers can query freely. Repeat
// calls are cheap: each cohort resumes from its cached positions, so a
// query-every-round workload degrades gracefully to one step per token
// per round rather than re-deriving trajectories.
func (s *Soup) lzSync(wantCounts bool) {
	lz := s.lz
	lz.mu.Lock()
	defer lz.mu.Unlock()
	if R := lz.lastRound; R >= 0 {
		for b := max(lz.firstRound, R-lz.T+2); b <= R; b++ {
			s.lzAdvance(b, R)
		}
	}
	if wantCounts && !lz.countsOK {
		s.lzFillCounts()
		lz.countsOK = true
	}
}

// lzFillCounts rebuilds the per-shard per-slot token counts from the
// cached cohort positions plus pending injections. Called under lz.mu.
func (s *Soup) lzFillCounts() {
	lz := s.lz
	for i := range s.shards {
		cs := s.shards[i].counts
		for j := range cs {
			cs[j] = 0
		}
	}
	if lz.lastRound >= 0 {
		for b := max(lz.firstRound, lz.lastRound-lz.T+2); b <= lz.lastRound; b++ {
			ci := b % lz.depth
			for i := range s.shards {
				for _, t := range s.shards[i].lzToks[ci] {
					loc := s.slotLoc[t.pos]
					s.shards[loc>>shard.LocalBits].counts[loc&localMask]++
				}
			}
		}
	}
	for i := range lz.pending {
		in := &lz.pending[i]
		loc := s.slotLoc[in.slot]
		s.shards[loc>>shard.LocalBits].counts[loc&localMask] += in.count
	}
}

// lzTotalTokens sums live cohort sizes plus pending injections.
func (s *Soup) lzTotalTokens() int {
	s.lzSync(false)
	lz := s.lz
	t := 0
	if lz.lastRound >= 0 {
		for b := max(lz.firstRound, lz.lastRound-lz.T+2); b <= lz.lastRound; b++ {
			ci := b % lz.depth
			for i := range s.shards {
				t += len(s.shards[i].lzToks[ci])
			}
		}
	}
	for i := range lz.pending {
		t += int(lz.pending[i].count)
	}
	return t
}

// lzAppendTokens appends slot's tokens in the lazy store's canonical
// order: cohorts by birth round, within a cohort by birth shard then
// materialization order, pending injections last.
func (s *Soup) lzAppendTokens(slot int, dst []Token) []Token {
	s.lzSync(false)
	lz := s.lz
	if lz.lastRound >= 0 {
		for b := max(lz.firstRound, lz.lastRound-lz.T+2); b <= lz.lastRound; b++ {
			ci := b % lz.depth
			steps := uint16(lz.T - (lz.lastRound - b + 1))
			for i := range s.shards {
				for _, t := range s.shards[i].lzToks[ci] {
					if int(t.pos) == slot {
						dst = append(dst, Token{
							Src: simnet.NodeID(t.idser >> 16), Birth: t.birth,
							Serial: uint16(t.idser), Steps: steps,
						})
					}
				}
			}
		}
	}
	for i := range lz.pending {
		in := &lz.pending[i]
		if int(in.slot) != slot {
			continue
		}
		for k := int32(0); k < in.count; k++ {
			dst = append(dst, Token{Src: in.id, Birth: in.birth,
				Serial: in.base + uint16(k), Steps: uint16(s.p.WalkLength)})
		}
	}
	return dst
}

// lzInject records an injection for the next stepped round. The serial
// base (the slot's stored count at inject time) was computed by the
// caller via TokensAt, which forced evaluation, so generation continuing
// from the post-inject count can never mint a colliding identity.
func (s *Soup) lzInject(slot, count int, id simnet.NodeID, birth int32, base uint16) {
	if uint64(id) >= maxSrcID {
		panic("walks: node id exceeds the packed staging range")
	}
	lz := s.lz
	lz.pending = append(lz.pending, injRec{
		slot: int32(slot), count: int32(count), id: id, birth: birth, base: base,
	})
	lz.countsOK = false
}
