// Package shard provides the slot-sharding helpers shared by the
// engine's message exchange (internal/simnet) and the walk soup's token
// exchange (internal/walks). Both move per-slot data with the same
// two-phase discipline: scatter by source shard, gather by destination
// shard, merging source shards in fixed index order.
//
// The shard count of a Grid is fixed at construction — NOT GOMAXPROCS —
// so that scatter output and gather merge order are identical on every
// machine and at every worker count. That constant order is what lets
// the engine deliver canonically ordered inboxes without sorting:
// determinism is structural, not re-established after the fact.
//
// Results are a pure function of (seeds, parameters, shard count), and
// the shard count leaks only through ordering, narrowly: every Grid
// partitions the slot range into contiguous ascending intervals, so
// streams merged per destination SLOT in source-slot order (the engine's
// inboxes) are identical across grids of different counts, while streams
// merged per destination SHARD (the soup's per-slot sample lists, whose
// deferred-tokens-first order is grouped by source shard) keep their
// per-slot multisets but not their order. Pick may therefore size the
// grid from n and GOMAXPROCS without perturbing engine messaging or any
// soup multiset/metric (pinned by the shard-count legs of the oracle
// tests); anything reading samples positionally must treat the shard
// count as an input, which simnet.Config.Shards lets callers pin.
package shard

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// MinCount is the smallest grid Pick returns: small enough that tiny
	// networks don't pay per-shard padding for dozens of empty shards,
	// large enough to spread over every core count we target.
	MinCount = 16
	// MaxCount bounds the grid so per-shard state (telemetry stripes,
	// staging buffer headers) stays cheap and shard indices fit the
	// 32-LocalBits top bits of a packed location with room to spare.
	MaxCount = 256
	// DefaultCount is the historical fixed grid, kept as the default for
	// mid-sized networks (n=65536 under Pick) and for callers that don't
	// care about sizing.
	DefaultCount = 64
)

// Loc packs a slot's (shard, local index within the shard) pair into one
// uint32: shard in the top bits, local index in the low LocalBits. Hot
// exchange loops resolve a destination slot with a single table load
// (LocTable) instead of a hardware divide (Of) plus a Bounds subtraction.
const (
	// LocalBits is the width of the local-index field; with 8 shard bits
	// on top (MaxCount = 256), per-shard spans up to 2^24 slots are
	// addressable — n up to MaxCount<<LocalBits = 2^32 slots total.
	LocalBits = 24
	localMask = 1<<LocalBits - 1
)

// Grid is a slot-sharding layout with a fixed power-of-two shard count.
// The zero value is invalid; construct with New, Default, or Pick.
type Grid struct {
	count int
}

// New returns a grid with the given shard count, which must be a power
// of two in [1, MaxCount].
func New(count int) Grid {
	if count < 1 || count > MaxCount || count&(count-1) != 0 {
		panic("shard: count must be a power of two in [1, MaxCount]")
	}
	return Grid{count: count}
}

// Default returns the DefaultCount grid.
func Default() Grid { return Grid{count: DefaultCount} }

// Pick sizes a grid for a network of n slots running on procs cores
// (procs <= 0 means 1). The rule: one shard per ~1024 slots — small
// enough that work-stealing over shards load-balances, large enough
// that per-shard buffers amortize — floored at max(MinCount, 4·procs)
// so every core has shards to steal even on small networks, and capped
// at MaxCount. n=65536 on <=4 cores yields DefaultCount, preserving the
// historical grid at the benchmark anchor size.
func Pick(n, procs int) Grid {
	if procs < 1 {
		procs = 1
	}
	c := ceilPow2(n / 1024)
	if f := ceilPow2(4 * procs); f > c {
		c = f
	}
	if c < MinCount {
		c = MinCount
	}
	if c > MaxCount {
		c = MaxCount
	}
	return Grid{count: c}
}

// ceilPow2 returns the smallest power of two >= x (and 1 for x <= 1).
func ceilPow2(x int) int {
	if x <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(x-1))
}

// Count returns the grid's shard count.
func (g Grid) Count() int { return g.count }

// Of maps a slot in [0, n) to its shard, exactly consistent with Bounds:
// slot s belongs to the unique shard sh with Bounds(sh, n) containing s.
// (The naive slot*count/n disagrees with the Bounds partition for some
// (slot, n); this is the proper inverse: the largest sh with
// sh*n/count <= slot.)
func (g Grid) Of(slot, n int) int {
	return (g.count*(slot+1) - 1) / n
}

// Bounds returns the slot range [lo, hi) owned by shard sh. Shards may be
// empty when n < the grid count. Ranges are contiguous and ascending in
// sh — the property the cross-count determinism argument rests on.
func (g Grid) Bounds(sh, n int) (lo, hi int) {
	return sh * n / g.count, (sh + 1) * n / g.count
}

// LocTable returns the slot → packed (shard, local) location table for a
// network of n slots: LocTable(n)[s] >> LocalBits is Of(s, n) and
// LocTable(n)[s] & (1<<LocalBits - 1) is s - lo where lo, _ = Bounds(...).
// Build once at setup; 4 bytes per slot.
func (g Grid) LocTable(n int) []uint32 {
	t := make([]uint32, n)
	for sh := 0; sh < g.count; sh++ {
		lo, hi := g.Bounds(sh, n)
		if hi-lo > 1<<LocalBits {
			panic("shard: per-shard span exceeds LocTable addressable range")
		}
		for s := lo; s < hi; s++ {
			t[s] = uint32(sh)<<LocalBits | uint32(s-lo)
		}
	}
	return t
}

// Loc unpacks a LocTable entry into (shard, local index).
func Loc(loc uint32) (sh, local int) {
	return int(loc >> LocalBits), int(loc & localMask)
}

// Offsets turns per-slot counts into the exclusive prefix-sum offset index
// of a counting sort: off[0] = 0, off[i+1] = off[i] + counts[i]. It
// requires len(off) == len(counts)+1 and returns the total. After pass 2
// of the sort, element range [off[i], off[i+1]) holds bucket i.
func Offsets(counts, off []int32) int32 {
	if len(off) != len(counts)+1 {
		panic("shard: Offsets requires len(off) == len(counts)+1")
	}
	var total int32
	off[0] = 0
	for i, c := range counts {
		total += c
		off[i+1] = total
	}
	return total
}

// Run invokes fn(sh) exactly once for every shard in [0, g.Count()),
// spread over the given number of worker goroutines claiming shards from
// a shared cursor. workers <= 1 runs inline on the caller's goroutine
// with zero allocation — the fast path the steady-state allocation
// budget is measured against. fn must be safe to call concurrently for
// distinct shards.
func (g Grid) Run(workers int, fn func(sh int)) {
	count := g.count
	if workers <= 1 {
		for sh := 0; sh < count; sh++ {
			fn(sh)
		}
		return
	}
	if workers > count {
		workers = count
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sh := int(cursor.Add(1) - 1)
				if sh >= count {
					return
				}
				fn(sh)
			}
		}()
	}
	wg.Wait()
}

// Barrier is a reusable sense-reversing barrier for a fixed number of
// participants. Wait blocks until all participants arrive; the LAST
// arriver runs the optional callback (serial, before anyone is released)
// — the hook round-major replay loops use to advance shared state
// between phases without a second synchronization. Allocation-free after
// construction.
type Barrier struct {
	parties int32
	count   atomic.Int32
	gen     atomic.Int32
	mu      sync.Mutex
	cond    sync.Cond // signalled under mu when gen advances
}

// spinWaits bounds how often Wait yields before it parks: phases are
// short, so the others usually arrive within a few yields, but a
// participant whose thread the OS (or hypervisor) has descheduled may
// take a whole time slice, and spinning through that would bill the
// wait as CPU time.
const spinWaits = 64

// NewBarrier returns a barrier for the given number of participants.
func NewBarrier(parties int) *Barrier {
	b := &Barrier{parties: int32(parties)}
	b.cond.L = &b.mu
	return b
}

// Reset re-arms the barrier for a (possibly different) participant
// count. Must not race with Wait.
func (b *Barrier) Reset(parties int) {
	b.parties = int32(parties)
	b.count.Store(0)
}

// Wait blocks until all participants have called Wait for the current
// generation. The final arriver first runs last (if non-nil), then
// releases the others. Waiters yield up to spinWaits times, then park.
func (b *Barrier) Wait(last func()) {
	g := b.gen.Load()
	if b.count.Add(1) == b.parties {
		if last != nil {
			last()
		}
		b.count.Store(0)
		b.mu.Lock()
		b.gen.Add(1)
		b.mu.Unlock()
		b.cond.Broadcast()
		return
	}
	for i := 0; i < spinWaits; i++ {
		if b.gen.Load() != g {
			return
		}
		runtime.Gosched()
	}
	b.mu.Lock()
	for b.gen.Load() == g {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
