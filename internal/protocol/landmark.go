package protocol

import (
	"dynp2p/internal/simnet"
)

// maybeWave starts a landmark-construction wave (Algorithm 2) if this is a
// wave round for the membership: at join, and every WaveEvery rounds from
// the committee's base round. Each member roots its own sampling tree; the
// trees' nodes become landmarks that know the committee roster.
func (h *Handler) maybeWave(ctx *simnet.Ctx, st *nodeState, m *membership) {
	round := ctx.Round
	due := round == m.joined
	if !due && round > m.base {
		due = (round-m.base)%h.P.WaveEvery == 0
	}
	if !due {
		return
	}
	h.ctr.waves.Inc(ctx.Shard)
	wave := round

	// The member itself is a landmark for its task.
	switch m.mode {
	case ModeStore:
		st.storageLM[m.key] = &lmEntry{
			roster: m.roster, expiry: round + h.P.LandmarkTTL, wave: wave,
		}
		h.growChildren(ctx, st, simnet.Msg{Item: m.key, IDs: m.roster, Trace: m.trace},
			h.P.TreeDepth, wave, m.mode)
	case ModeSearch:
		t := h.addSearchTask(st, m.key, m.com, m.searcher, round, wave, m.trace)
		t.recruit(h.growChildren(ctx, st, simnet.Msg{
			Item: m.com, Aux2: uint64(m.searcher), Blob: keyBlob(m.key), Trace: m.trace,
		}, h.P.TreeDepth, wave, m.mode))
	}
}

// growChildren sends tree-growth invitations to TreeFanout recent walk
// samples ("node v contacts its received sample nodes and adds 2 nodes
// that are not yet part of the tree as its children"). grow supplies the
// invitation's committee fields (Item, Aux2, IDs, Blob, Trace); the
// recruited children are returned.
func (h *Handler) growChildren(ctx *simnet.Ctx, st *nodeState, grow simnet.Msg, depth, wave int, mode Mode) []simnet.NodeID {
	if depth <= 0 {
		return nil
	}
	children := st.recentDistinct(nil, h.P.TreeFanout)
	grow.Kind = KindLGrow
	grow.Aux = packGrow(depth-1, wave, mode)
	for _, child := range children {
		grow.To = child
		ctx.SendRouted(grow)
	}
	h.ctr.growSent.Add(ctx.Shard, int64(len(children)))
	return children
}

// onGrow handles a tree-growth invitation: the node becomes a landmark for
// the item (or search task) and recursively extends the tree unless it was
// already recruited into this wave (the paper's "not yet part of the
// tree" rule, enforced at the receiver). A retire-flagged invitation ends
// the search task instead.
func (h *Handler) onGrow(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	if msg.Aux&growRetire != 0 {
		h.retire(ctx, st, msg.Item, msg.Blob)
		return
	}
	depth, wave, mode := unpackGrow(msg.Aux)
	switch mode {
	case ModeStore:
		key := msg.Item
		if ent, ok := st.storageLM[key]; ok && ent.wave == wave {
			// Already in this wave's tree: refresh, do not extend.
			if exp := ctx.Round + h.P.LandmarkTTL; exp > ent.expiry {
				ent.expiry = exp
			}
			return
		}
		st.storageLM[key] = &lmEntry{
			roster: append([]simnet.NodeID(nil), msg.IDs...),
			expiry: ctx.Round + h.P.LandmarkTTL,
			wave:   wave,
		}
		h.growChildren(ctx, st, simnet.Msg{Item: key, IDs: msg.IDs, Trace: msg.Trace}, depth, wave, mode)
	case ModeSearch:
		key, com := blobKey(msg.Blob), msg.Item
		if t := findSearchTask(st, key, com); t != nil && t.wave == wave {
			if exp := ctx.Round + h.P.LandmarkTTL; exp > t.expiry {
				t.expiry = exp
			}
			return
		}
		t := h.addSearchTask(st, key, com, simnet.NodeID(msg.Aux2), ctx.Round, wave, msg.Trace)
		t.recruit(h.growChildren(ctx, st, simnet.Msg{
			Item: com, Aux2: msg.Aux2, Blob: msg.Blob, Trace: msg.Trace,
		}, depth, wave, mode))
	}
}

// addSearchTask registers this node as a search landmark for search com
// (item key, run by searcher), creating or refreshing the task.
func (h *Handler) addSearchTask(st *nodeState, key, com uint64, searcher simnet.NodeID, round, wave int, trace uint64) *searchTask {
	if t := findSearchTask(st, key, com); t != nil {
		t.expiry = round + h.P.LandmarkTTL
		t.wave = wave
		if trace != 0 {
			t.trace = trace
		}
		return t
	}
	t := &searchTask{
		com: com, searcher: searcher, expiry: round + h.P.LandmarkTTL, wave: wave, trace: trace,
	}
	st.searchLM[key] = append(st.searchLM[key], t)
	return t
}

func findSearchTask(st *nodeState, key, com uint64) *searchTask {
	for _, t := range st.searchLM[key] {
		if t.com == com {
			return t
		}
	}
	return nil
}

// recruit records tree children, once each, for the retire fan-out.
func (t *searchTask) recruit(children []simnet.NodeID) {
	for _, c := range children {
		if !inRoster(t.children, c) {
			t.children = append(t.children, c)
		}
	}
}

// sendRetire tells each of to that search com (item key kb) is over.
func (h *Handler) sendRetire(ctx *simnet.Ctx, to []simnet.NodeID, com uint64, kb []byte, trace uint64) {
	for _, peer := range to {
		ctx.SendRouted(simnet.Msg{
			To: peer, Kind: KindLGrow, Item: com,
			Aux:   growRetire,
			Blob:  kb,
			Trace: trace,
		})
	}
}

// retire ends this node's part in search com (item key kb): a search
// committee member stops waving, and the landmark task stops inquiring
// and passes the retire down to the children it recruited. A node with no
// task for com has nothing to forward, so the cascade visits each tree
// node once and dies out within TreeDepth+1 rounds.
func (h *Handler) retire(ctx *simnet.Ctx, st *nodeState, com uint64, kb []byte) {
	if m, ok := st.memberships[com]; ok && m.mode == ModeSearch {
		delete(st.memberships, com)
	}
	key := blobKey(kb)
	tasks := st.searchLM[key]
	for i, t := range tasks {
		if t.com != com {
			continue
		}
		if len(tasks) == 1 {
			delete(st.searchLM, key)
		} else {
			st.searchLM[key] = append(tasks[:i], tasks[i+1:]...)
		}
		h.sendRetire(ctx, t.children, com, kb, t.trace)
		return
	}
}
