package protocol

import (
	"bytes"
	"slices"

	"dynp2p/internal/ida"
	"dynp2p/internal/simnet"
	"dynp2p/internal/telemetry"
	"dynp2p/internal/walks"
)

// searchState tracks one retrieval this node initiated (Algorithm 4).
type searchState struct {
	key      uint64
	com      uint64 // the search committee's id
	start    int
	deadline int
	found    int // round the first storage roster arrived; -1 until then
	roster   []simnet.NodeID
	members  []simnet.NodeID        // the search committee invited (the retire's recipients)
	fetched  map[simnet.NodeID]bool // members already asked for data
	pieces   []ida.Piece
	itemLen  int
	want     []byte // expected content, if known (for verification)
	trace    uint64 // nonzero when this retrieval is lifecycle-traced
	cached   bool   // a cached copy resolved (or is resolving) the search
}

// RequestStore asks the node at slot to persistently store (key, data)
// via Algorithm 3: it will create a committee from its walk samples and
// instruct it to store the item and maintain landmark sets. Call between
// rounds only.
func (h *Handler) RequestStore(e *simnet.Engine, slot int, key uint64, data []byte) {
	st := &h.states[slot]
	st.pending = append(st.pending, pendingOp{
		mode: ModeStore, key: key,
		data:  append([]byte(nil), data...),
		start: e.Round(),
	})
}

// RequestRetrieve asks the node at slot to retrieve item key via
// Algorithm 4. expect, when non-nil, is verified against the retrieved
// bytes. Call between rounds only. One active search per (node, key).
func (h *Handler) RequestRetrieve(e *simnet.Engine, slot int, key uint64, expect []byte) {
	st := &h.states[slot]
	st.pending = append(st.pending, pendingOp{
		mode: ModeSearch, key: key,
		data:  expect,
		start: e.Round(),
	})
}

// tickPending creates committees for requested operations once the node
// has gathered enough walk samples to pick committee members.
func (h *Handler) tickPending(ctx *simnet.Ctx, st *nodeState) {
	if len(st.pending) == 0 {
		return
	}
	kept := st.pending[:0]
	for _, op := range st.pending {
		// A retrieval the node can answer from its own cache never forms
		// a committee: it resolves in place, this tick.
		if op.mode == ModeSearch {
			if e := h.cacheLookup(ctx, op.key); e != nil {
				h.serveOwnCacheHit(ctx, st, op, e)
				continue
			}
		}
		roster := st.recentDistinct(nil, h.inviteCount())
		// Wait until a full committee can be drawn; the grace period
		// covers the soup warm-up (a fresh node sees its first samples
		// only after one walk length), after which we use what we have.
		grace := h.soup.Params().WalkLength + 2*h.P.SampleWindow
		enough := len(roster) >= h.P.CommitteeSize ||
			(ctx.Round-op.start > grace && len(roster) > 0)
		if !enough {
			kept = append(kept, op)
			continue
		}
		switch op.mode {
		case ModeStore:
			h.createStoreCommittee(ctx, st, op, roster)
		case ModeSearch:
			h.createSearchCommittee(ctx, st, op, roster)
		}
	}
	st.pending = kept
}

// createStoreCommittee implements Algorithm 3 step 1-2: invite the roster
// to form the item's committee, handing each member the item (or its IDA
// piece).
func (h *Handler) createStoreCommittee(ctx *simnet.Ctx, st *nodeState, op pendingOp, roster []simnet.NodeID) {
	com := op.key
	trace := h.sampleOp(ctx, st, op, true)
	var pieces []ida.Piece
	if h.code != nil {
		pieces = h.code.Encode(op.data)
	}
	for i, peer := range roster {
		blob := op.data
		pieceIdx := 0
		if pieces != nil {
			p := pieces[i%len(pieces)]
			blob = p.Data
			pieceIdx = p.Index
		}
		ctx.SendRouted(simnet.Msg{
			To: peer, Kind: KindCInvite, Item: com,
			Aux:   packInvite(ctx.Round, ModeStore, pieceIdx),
			Aux2:  uint64(len(op.data)),
			IDs:   roster,
			Blob:  blob,
			Trace: trace,
		})
	}
	h.ctr.invitesSent.Add(ctx.Shard, int64(len(roster)))
	h.ctr.committeeCreated.Inc(ctx.Shard)
}

// sampleOp decides whether the operation is lifecycle-traced and, when it
// is, emits its start event (dated at the request round, so
// rounds-to-resolve includes the soup warm-up wait). The decision is a
// pure hash of (tracer seed, key, issuer): worker-count independent.
func (h *Handler) sampleOp(ctx *simnet.Ctx, st *nodeState, op pendingOp, isStore bool) uint64 {
	tr := ctx.E.Tracer()
	if tr == nil {
		return 0
	}
	trace := tr.Sampled(op.key, uint64(st.id))
	if trace != 0 {
		tr.Emit(ctx.Shard, telemetry.Event{
			Trace: trace, Round: int64(op.start), Kind: telemetry.EvOpStart,
			From: uint64(st.id), Item: op.key, OK: isStore,
		})
	}
	return trace
}

// createSearchCommittee implements Algorithm 4 step 1: invite a search
// committee and start tracking the retrieval locally.
func (h *Handler) createSearchCommittee(ctx *simnet.Ctx, st *nodeState, op pendingOp, roster []simnet.NodeID) {
	com := searchComID(op.key, st.id, op.start)
	trace := h.sampleOp(ctx, st, op, false)
	st.searches[op.key] = &searchState{
		key: op.key, com: com, start: op.start,
		deadline: op.start + h.P.SearchTTL,
		found:    -1,
		members:  roster,
		fetched:  make(map[simnet.NodeID]bool),
		want:     op.data,
		trace:    trace,
	}
	kb := keyBlob(op.key)
	for _, peer := range roster {
		ctx.SendRouted(simnet.Msg{
			To: peer, Kind: KindCInvite, Item: com,
			Aux:   packInvite(ctx.Round, ModeSearch, 0),
			Aux2:  uint64(st.id),
			IDs:   roster,
			Blob:  kb,
			Trace: trace,
		})
	}
	h.ctr.invitesSent.Add(ctx.Shard, int64(len(roster)))
	h.ctr.committeeCreated.Inc(ctx.Shard)
	// The searcher doubles as a search landmark so its own walk samples
	// contribute to the rendezvous.
	h.addSearchTask(st, op.key, com, st.id, ctx.Round, ctx.Round, trace)
	// Shortcut: if the searcher already happens to be a storage landmark
	// for the item, it knows the roster and can fetch immediately.
	if ent, ok := st.storageLM[op.key]; ok && ctx.Round < ent.expiry {
		srch := st.searches[op.key]
		srch.found = ctx.Round
		for _, member := range ent.roster {
			if member == st.id || srch.fetched[member] {
				continue
			}
			srch.fetched[member] = true
			srch.roster = append(srch.roster, member)
			ctx.SendRouted(simnet.Msg{To: member, Kind: KindSFetch, Item: op.key, Trace: trace})
			h.ctr.fetches.Inc(ctx.Shard)
		}
	}
}

// searchComID derives a unique committee id for a retrieval operation.
func searchComID(key uint64, searcher simnet.NodeID, round int) uint64 {
	x := key ^ 0x9e3779b97f4a7c15*uint64(searcher) ^ uint64(round)<<32
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// tickSearchLandmarks runs Algorithm 4 step 2's inquiry loop: every search
// landmark contacts the sources of the walk samples it received this round
// and inquires about the item.
func (h *Handler) tickSearchLandmarks(ctx *simnet.Ctx, st *nodeState, samples []walks.Sample) {
	if len(st.searchLM) == 0 || len(samples) == 0 {
		return
	}
	for _, key := range st.sortedLMKeys() {
		for _, t := range st.searchLM[key] {
			if ctx.Round >= t.expiry {
				continue
			}
			sent := 0
			for _, s := range samples {
				if s.Src == st.id {
					continue
				}
				// Keyed routed send: under overlay routing the walk may
				// terminate early at ANY current holder of the item (cache
				// replica, storage landmark, committee member), not just
				// the sampled source — replicas cut network distance.
				ctx.SendRoutedKeyed(simnet.Msg{
					To: s.Src, Kind: KindSInquire, Item: key,
					Aux:   t.com,
					Aux2:  uint64(t.searcher),
					Trace: t.trace,
				})
				sent++
			}
			h.ctr.inquiries.Add(ctx.Shard, int64(sent))
		}
	}
}

// onInquire answers an inquiry if this node is a storage landmark (or
// committee member) for the item: it reports the storage roster directly
// to the searcher, once per search per registration — every later
// inquiry from the same search would carry the same roster.
func (h *Handler) onInquire(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	// A cached copy beats a roster referral: the bytes go straight to
	// the searcher, skipping the fetch/reconstruct round-trips.
	if e := h.cacheLookup(ctx, msg.Item); e != nil {
		h.cacheServe(ctx, e, simnet.NodeID(msg.Aux2), msg.Trace)
		return
	}
	ent, ok := st.storageLM[msg.Item]
	if !ok || ctx.Round >= ent.expiry || slices.Contains(ent.answered, msg.Aux) {
		return
	}
	ent.answered = append(ent.answered, msg.Aux)
	ctx.SendRouted(simnet.Msg{
		To: simnet.NodeID(msg.Aux2), Kind: KindSFound, Item: msg.Item,
		IDs:   ent.roster,
		Trace: msg.Trace, // the inquiring search's trace rides the reply
	})
	h.ctr.founds.Inc(ctx.Shard)
}

// onFound handles the searcher's side: record the storage roster and fetch
// the item from the committee members.
func (h *Handler) onFound(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	srch, ok := st.searches[msg.Item]
	if !ok {
		return
	}
	if srch.found < 0 {
		srch.found = ctx.Round
	}
	for _, member := range msg.IDs {
		if member == st.id || srch.fetched[member] {
			continue
		}
		srch.fetched[member] = true
		srch.roster = append(srch.roster, member)
		ctx.SendRouted(simnet.Msg{To: member, Kind: KindSFetch, Item: msg.Item, Trace: srch.trace})
		h.ctr.fetches.Inc(ctx.Shard)
	}
}

// onFetch returns this member's copy or piece of the item.
func (h *Handler) onFetch(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	cp, ok := st.stored[msg.Item]
	if !ok {
		return
	}
	hasPiece := cp.pieceIdx >= 0
	idx := cp.pieceIdx
	if idx < 0 {
		idx = 0
	}
	ctx.SendRouted(simnet.Msg{
		To: msg.From, Kind: KindSData, Item: msg.Item,
		Aux:   packCount(0, idx, hasPiece),
		Aux2:  uint64(cp.itemLen),
		Blob:  cp.data,
		Trace: msg.Trace,
	})
}

// onData completes (or advances) a retrieval with a data response.
func (h *Handler) onData(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	srch, ok := st.searches[msg.Item]
	if !ok {
		return
	}
	_, pieceIdx, hasPiece := unpackCount(msg.Aux)
	var item []byte
	if !hasPiece {
		item = msg.Blob
	} else {
		if h.code == nil {
			return
		}
		srch.itemLen = int(msg.Aux2)
		srch.pieces = append(srch.pieces, ida.Piece{
			Index: pieceIdx, Data: append([]byte(nil), msg.Blob...),
		})
		if distinctPieces(srch.pieces) < h.code.K() {
			return
		}
		dec, err := h.code.Decode(srch.pieces, srch.itemLen)
		if err != nil {
			return
		}
		item = dec
	}
	ok = srch.want == nil || bytes.Equal(item, srch.want)
	if ok {
		h.cacheAdmit(ctx, st, msg.Item, item, srch.trace)
	}
	h.finishSearch(ctx, st, srch, ctx.Round, ok, len(item))
}

func distinctPieces(ps []ida.Piece) int {
	seen := make(map[int]bool, len(ps))
	for _, p := range ps {
		seen[p.Index] = true
	}
	return len(seen)
}

// finishSearch records the retrieval outcome, retires the search and
// clears the local state.
func (h *Handler) finishSearch(ctx *simnet.Ctx, st *nodeState, srch *searchState, done int, success bool, nbytes int) {
	h.recordResult(SearchResult{
		Searcher: st.id, Key: srch.key, Start: srch.start,
		Found: srch.found, Done: done, Success: success,
		Cached: srch.cached, Bytes: nbytes,
	})
	if success {
		lat := int64(done - srch.start)
		if srch.cached {
			h.ctr.roundsCached.Observe(ctx.Shard, lat)
		} else {
			h.ctr.roundsUncached.Observe(ctx.Shard, lat)
		}
	}
	h.emitSearchDone(ctx, st, srch, done, success)
	h.retireSearch(ctx, st, srch)
	delete(st.searches, srch.key)
}

// retireSearch stops the protocol traffic of a search that is over: the
// searcher drops its own landmark task and tells its search committee,
// whose members stop waving and cascade the retire down their landmark
// trees. A search resolved from the node's own cache has no committee.
func (h *Handler) retireSearch(ctx *simnet.Ctx, st *nodeState, srch *searchState) {
	if srch.com == 0 {
		return
	}
	kb := keyBlob(srch.key)
	h.sendRetire(ctx, srch.members, srch.com, kb, srch.trace)
	h.retire(ctx, st, srch.com, kb)
}

// emitSearchDone closes a traced retrieval's lifecycle.
func (h *Handler) emitSearchDone(ctx *simnet.Ctx, st *nodeState, srch *searchState, done int, success bool) {
	if srch.trace == 0 {
		return
	}
	if tr := ctx.E.Tracer(); tr != nil {
		tr.Emit(ctx.Shard, telemetry.Event{
			Trace: srch.trace, Round: int64(done), Kind: telemetry.EvOpDone,
			From: uint64(st.id), Item: srch.key,
			Aux: int64(done - srch.start), OK: success,
		})
	}
}

// tickSearches expires overdue retrievals (recorded as failures).
func (h *Handler) tickSearches(ctx *simnet.Ctx, st *nodeState) {
	if len(st.searches) == 0 {
		return
	}
	for _, key := range st.sortedSearchKeys() {
		srch := st.searches[key]
		if ctx.Round >= srch.deadline {
			h.recordResult(SearchResult{
				Searcher: st.id, Key: srch.key, Start: srch.start,
				Found: srch.found, Done: -1, Success: false,
			})
			h.emitSearchDone(ctx, st, srch, ctx.Round, false)
			h.retireSearch(ctx, st, srch)
			delete(st.searches, key)
			continue
		}
		// Keep the searcher's own inquiry task alive while the search
		// runs, even past the landmark TTL.
		if t := findSearchTask(st, key, srch.com); t != nil && t.expiry <= ctx.Round+1 {
			t.expiry = ctx.Round + 2
		}
	}
}

// sortIDs sorts a NodeID slice ascending (helper for tests).
func sortIDs(ids []simnet.NodeID) {
	slices.Sort(ids)
}
