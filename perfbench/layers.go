package main

import (
	"fmt"
	"strings"
	"time"

	"dynp2p"
	"dynp2p/internal/protocol"
	"dynp2p/internal/simnet"
)

// kinds names the protocol message kinds in metric order; messages of any
// other kind are tallied as "other".
var kinds = [...]struct {
	name string
	kind uint8
}{
	{"cinvite", protocol.KindCInvite},
	{"ccount", protocol.KindCCount},
	{"chandover", protocol.KindCHandover},
	{"lgrow", protocol.KindLGrow},
	{"sinquire", protocol.KindSInquire},
	{"sfound", protocol.KindSFound},
	{"sfetch", protocol.KindSFetch},
	{"sdata", protocol.KindSData},
	{"cachedata", protocol.KindCacheData},
	{"cacheseed", protocol.KindCacheSeed},
}

// other is the tally index of kinds missing from the table.
const other = len(kinds)

// shardTally is one slot shard's share of the tallies. Each shard is
// handled by one worker at a time, so no locking is needed; the padding
// keeps shards off each other's cache lines.
type shardTally struct {
	delivered [other + 1]int64 // by kinds index, then other
	busyNS    int64
	_         [64]byte
}

// tallyHandler wraps the protocol handler: it counts each inbox by
// message kind and adds up HandleRound time, per ctx.Shard.
type tallyHandler struct {
	inner  simnet.Handler
	index  [256]uint8 // message kind -> tally index
	shards []shardTally
}

func newTallyHandler(nw *dynp2p.Network) *tallyHandler {
	t := &tallyHandler{
		inner:  nw.Handler(),
		shards: make([]shardTally, nw.Engine().Grid().Count()),
	}
	for i := range t.index {
		t.index[i] = uint8(other)
	}
	for i, k := range kinds {
		t.index[k.kind] = uint8(i)
	}
	return t
}

func (t *tallyHandler) OnJoin(e *simnet.Engine, slot int, id simnet.NodeID, round int) {
	t.inner.OnJoin(e, slot, id, round)
}

func (t *tallyHandler) OnLeave(e *simnet.Engine, slot int, id simnet.NodeID, round int) {
	t.inner.OnLeave(e, slot, id, round)
}

func (t *tallyHandler) HandleRound(ctx *simnet.Ctx) {
	sh := &t.shards[ctx.Shard]
	for i := range ctx.Inbox {
		sh.delivered[t.index[ctx.Inbox[i].Kind]]++
	}
	start := time.Now()
	t.inner.HandleRound(ctx)
	sh.busyNS += int64(time.Since(start))
}

// layerCounters is a cumulative reading of the traced run's timers and
// tallies, taken between rounds.
type layerCounters struct {
	phaseNS   map[string]int64 // round-phase profiler totals by phase name
	delivered [other + 1]int64
	busyNS    int64
}

func readLayerCounters(nw *dynp2p.Network, t *tallyHandler) layerCounters {
	c := layerCounters{phaseNS: make(map[string]int64)}
	reg := nw.Telemetry()
	for _, name := range nw.Profiler().Names() {
		c.phaseNS[name] = reg.CounterValue("dynp2p_phase_" + name + "_ns_total")
	}
	for i := range t.shards {
		for k, v := range t.shards[i].delivered {
			c.delivered[k] += v
		}
		c.busyNS += t.shards[i].busyNS
	}
	return c
}

func (c layerCounters) minus(b layerCounters) layerCounters {
	d := layerCounters{phaseNS: make(map[string]int64), busyNS: c.busyNS - b.busyNS}
	for name, v := range c.phaseNS {
		d.phaseNS[name] = v - b.phaseNS[name]
	}
	for k := range d.delivered {
		d.delivered[k] = c.delivered[k] - b.delivered[k]
	}
	return d
}

// layerSample is a traced trial's window: counter deltas plus the summed
// wall time of its rounds.
type layerSample struct {
	layerCounters
	wallNS int64
}

func newLayerSample(before, after layerCounters, roundNS []int64) *layerSample {
	s := &layerSample{layerCounters: after.minus(before)}
	for _, ns := range roundNS {
		s.wallNS += ns
	}
	return s
}

// check asserts that the inbox tallies account for every message the
// engine delivered in the window.
func (s *layerSample) check(o *outcome) error {
	var sum int64
	for _, v := range s.delivered {
		sum += v
	}
	if want := o.end.Engine.MsgsDelivered - o.start.Engine.MsgsDelivered; sum != want {
		return fmt.Errorf("per-kind tallies sum to %d, engine delivered %d", sum, want)
	}
	return nil
}

// layerRaw returns a traced trial's per-layer counts and times as
// summable values: a set's per-layer metrics derive from the sums over
// its trials. Keys with a dot are metrics reported as totals; the others
// are inputs to derived metrics.
func layerRaw(tr *trial) map[string]float64 {
	o, s := &tr.out, tr.layers
	d := delta(o.start, o.end)
	m := map[string]float64{
		"rounds":    float64(o.rounds),
		"wall_ns":   float64(s.wallNS),
		"busy_ns":   float64(s.busyNS),
		"issued":    float64(o.issued),
		"inquiries": float64(d.Proto.Inquiries),

		"walks.token_moves": float64(d.Soup.Moves),
		"walks_completed":   float64(d.Soup.Completed),
		"walks_ended":       float64(d.Soup.Completed + d.Soup.Died + d.Soup.Overdue),

		"route.sent":             float64(d.Route.Sent),
		"route.delivered":        float64(d.Route.Delivered),
		"route.forwards":         float64(d.Route.Forwards),
		"route.parked":           float64(d.Route.Parked),
		"route.drops_budget":     float64(d.Route.DroppedBudget),
		"route.drops_queue_full": float64(d.Route.DroppedQueueFull),
		"route.drops_churn":      float64(d.Route.DroppedChurn),
		"route.drops_dead":       float64(d.Route.DroppedDead),

		"protocol.committees_created": float64(d.Proto.CommitteesCreated),
		"protocol.handovers":          float64(d.Proto.Handovers),
		"protocol.ida_lost":           float64(d.Proto.IDALost),
		"protocol.cache_hits":         float64(d.Proto.CacheHits),

		"simnet.msgs_sent":          float64(d.Engine.MsgsSent),
		"simnet.msgs_delivered":     float64(d.Engine.MsgsDelivered),
		"simnet.msgs_churn_dropped": float64(d.Engine.MsgsDropped),
		"simnet.msgs_fault_dropped": float64(d.Engine.MsgsFaultDropped),
		"simnet.msgs_delayed":       float64(d.Engine.MsgsDelayed),
		"simnet.bits_sent":          float64(d.Engine.BitsSent),

		"overlay.repairs":       float64(d.Overlay.Splices + d.Overlay.DirectPairs),
		"overlay.stale_samples": float64(d.Overlay.StaleSamples),
	}
	for name, ns := range s.phaseNS {
		m["ns_"+name] = float64(ns)
	}
	for i, k := range kinds {
		m["protocol.delivered."+k.name] = float64(s.delivered[i])
	}
	m["protocol.delivered.other"] = float64(s.delivered[other])
	return m
}

// layerMetrics derives the per-layer metrics from summed layerRaw values.
// Counts stay totals; times become ms per window round; maxLink is the
// router's largest per-slot forward count in any round.
func layerMetrics(raw map[string]float64, maxLink int64) map[string]float64 {
	perRound := func(ns float64) float64 { return ns / raw["rounds"] / 1e6 }
	phase := func(name string) float64 { return raw["ns_"+name] }
	m := map[string]float64{}
	for k, v := range raw {
		if strings.Contains(k, ".") {
			m[k] = v
		}
	}
	m["walks.soup_ms"] = perRound(phase("soup"))
	m["walks.moves_per_s"] = ratio(raw["walks.token_moves"], phase("soup")/1e9)
	m["walks.survival"] = ratio(raw["walks_completed"], raw["walks_ended"])

	m["route.routed_ms"] = perRound(phase("routed"))
	m["route.delivered_ratio"] = ratio(raw["route.delivered"], raw["route.sent"])
	m["route.max_link_load"] = float64(maxLink)

	m["protocol.inquiries_per_retrieval"] = ratio(raw["inquiries"], raw["issued"])
	m["protocol.handlers_ms"] = perRound(phase("handlers"))
	m["protocol.busy_ms"] = perRound(raw["busy_ns"])

	m["simnet.churn_ms"] = perRound(phase("churn"))
	m["simnet.topology_ms"] = perRound(phase("topology"))
	m["simnet.deliver_ms"] = perRound(phase("deliver"))
	m["simnet.exchange_ms"] = perRound(phase("route"))
	unattributed := raw["wall_ns"]
	for k, v := range raw {
		if strings.HasPrefix(k, "ns_") {
			unattributed -= v
		}
	}
	m["simnet.unattributed_ms"] = perRound(unattributed)

	m["overlay.repair_ms"] = perRound(phase("overlay"))
	return m
}

// delta returns the counter differences end - start of the counters the
// benchmark reports; gauges and point samples stay zero.
func delta(start, end dynp2p.Stats) dynp2p.Stats {
	var d dynp2p.Stats
	a, b := &start.Engine, &end.Engine
	d.Engine = simnet.Metrics{
		Rounds:           b.Rounds - a.Rounds,
		MsgsSent:         b.MsgsSent - a.MsgsSent,
		MsgsDelivered:    b.MsgsDelivered - a.MsgsDelivered,
		MsgsDropped:      b.MsgsDropped - a.MsgsDropped,
		MsgsFaultDropped: b.MsgsFaultDropped - a.MsgsFaultDropped,
		MsgsDelayed:      b.MsgsDelayed - a.MsgsDelayed,
		BitsSent:         b.BitsSent - a.BitsSent,
		Replacements:     b.Replacements - a.Replacements,
	}
	ws, we := &start.Soup, &end.Soup
	d.Soup.Generated = we.Generated - ws.Generated
	d.Soup.Completed = we.Completed - ws.Completed
	d.Soup.Died = we.Died - ws.Died
	d.Soup.Overdue = we.Overdue - ws.Overdue
	d.Soup.Moves = we.Moves - ws.Moves
	d.Soup.Deferred = we.Deferred - ws.Deferred
	ps, pe := &start.Proto, &end.Proto
	d.Proto.Inquiries = pe.Inquiries - ps.Inquiries
	d.Proto.CommitteesCreated = pe.CommitteesCreated - ps.CommitteesCreated
	d.Proto.Handovers = pe.Handovers - ps.Handovers
	d.Proto.IDALost = pe.IDALost - ps.IDALost
	d.Proto.CacheHits = pe.CacheHits - ps.CacheHits
	os, oe := &start.Overlay, &end.Overlay
	d.Overlay.Splices = oe.Splices - os.Splices
	d.Overlay.DirectPairs = oe.DirectPairs - os.DirectPairs
	d.Overlay.StaleSamples = oe.StaleSamples - os.StaleSamples
	rs, re := &start.Route, &end.Route
	d.Route = dynp2p.RouteMetrics{
		Sent:             re.Sent - rs.Sent,
		Delivered:        re.Delivered - rs.Delivered,
		Forwards:         re.Forwards - rs.Forwards,
		Parked:           re.Parked - rs.Parked,
		DroppedBudget:    re.DroppedBudget - rs.DroppedBudget,
		DroppedQueueFull: re.DroppedQueueFull - rs.DroppedQueueFull,
		DroppedChurn:     re.DroppedChurn - rs.DroppedChurn,
		DroppedDead:      re.DroppedDead - rs.DroppedDead,
	}
	return d
}

// ratio is a / b, or 0 when nothing was attempted (b == 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
