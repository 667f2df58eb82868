package protocol

import (
	"cmp"
	"slices"

	"dynp2p/internal/ida"
	"dynp2p/internal/simnet"
	"dynp2p/internal/telemetry"
	"dynp2p/internal/walks"
)

// membership is one node's view of one committee it belongs to
// (Algorithm 1). The epoch machinery re-elects the whole committee from
// fresh walk samples every Period rounds so the committee outlives its
// members (Theorem 2).
type membership struct {
	com      uint64 // committee id (= item key for storage committees)
	key      uint64 // item key (differs from com for search committees)
	mode     Mode
	base     int             // committee creation round; anchors the epoch schedule
	searcher simnet.NodeID   // search mode: whom results are for
	roster   []simnet.NodeID // current members (possibly including dead ids)
	joined   int             // round this node (re-)joined
	owner    simnet.NodeID   // the node this membership state belongs to
	trace    uint64          // lifecycle trace id inherited from the invite (0 = untraced)

	// Per-epoch scratch, reset at each epoch's sample window.
	curEpoch     int                   // epoch the scratch belongs to
	sources      []simnet.NodeID       // walk sources recorded in the window
	myCount      int                   // walks received in the window
	counts       map[simnet.NodeID]int // member -> reported count
	gathered     map[int][]byte        // IDA pieces piggybacked on counts
	gatheredLen  int                   // item length for gathered pieces
	handledEpoch int                   // last epoch with a handover seen/attempted
}

// epochOf returns the maintenance epoch index for a round (0 = the epoch
// in which the committee was created; maintenance starts with epoch 1).
func (m *membership) epochOf(round, period int) int {
	if round < m.base {
		return 0
	}
	return (round - m.base) / period
}

// phaseOf returns the offset of round within its epoch.
func (m *membership) phaseOf(round, period int) int {
	if round < m.base {
		return 0
	}
	return (round - m.base) % period
}

// inRoster reports whether id appears in ids.
func inRoster(ids []simnet.NodeID, id simnet.NodeID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}

// tickMemberships runs the per-round committee machinery for every
// committee this node belongs to: sample-window recording, count exchange,
// ranked handover attempts, landmark waves, and search-committee expiry.
func (h *Handler) tickMemberships(ctx *simnet.Ctx, st *nodeState, samples []walks.Sample) {
	if len(st.memberships) == 0 {
		return
	}
	round := ctx.Round
	for _, com := range st.sortedComIDs() {
		m := st.memberships[com]

		// Search committees dissolve after SearchTTL (Algorithm 4 step 1).
		if m.mode == ModeSearch {
			if round >= m.base+h.P.SearchTTL {
				delete(st.memberships, com)
				continue
			}
			h.maybeWave(ctx, st, m)
			continue
		}

		// Storage committees: epoch maintenance (Algorithm 1).
		epoch := m.epochOf(round, h.P.Period)
		phase := m.phaseOf(round, h.P.Period)
		if epoch >= 1 {
			if phase < h.P.SampleWindow {
				if m.curEpoch != epoch {
					m.curEpoch = epoch
					m.sources = m.sources[:0]
					m.myCount = 0
					m.counts = make(map[simnet.NodeID]int, len(m.roster))
					m.gathered = nil
					m.gatheredLen = 0
				}
				m.myCount += len(samples)
				for _, s := range samples {
					if s.Src != st.id {
						m.sources = append(m.sources, s.Src)
					}
				}
			}
			if phase == h.P.SampleWindow && m.curEpoch == epoch {
				h.sendCounts(ctx, st, m)
			}
			if phase > h.P.SampleWindow && m.curEpoch == epoch && m.handledEpoch < epoch {
				k := phase - h.P.SampleWindow - 1
				if k >= 0 && k%h.P.FallbackSpacing == 0 {
					k /= h.P.FallbackSpacing
					if k < h.P.FallbackCandidates && h.rankOf(m) == k {
						h.attemptHandover(ctx, st, m, epoch, k)
					}
				}
			}
		}
		h.maybeWave(ctx, st, m)
	}
}

// sendCounts broadcasts this member's sample count (and, in IDA mode, its
// piece) to the whole roster.
func (h *Handler) sendCounts(ctx *simnet.Ctx, st *nodeState, m *membership) {
	m.counts[st.id] = m.myCount
	var blob []byte
	aux := packCount(m.myCount, 0, false)
	var itemLen uint64
	if h.code != nil {
		if cp, ok := st.stored[m.key]; ok && cp.pieceIdx >= 0 {
			blob = cp.data
			aux = packCount(m.myCount, cp.pieceIdx, true)
			itemLen = uint64(cp.itemLen)
			// Record own piece for a potential local reconstruction.
			if m.gathered == nil {
				m.gathered = make(map[int][]byte)
			}
			m.gathered[cp.pieceIdx] = cp.data
			m.gatheredLen = cp.itemLen
		}
	}
	for _, peer := range m.roster {
		if peer == st.id {
			continue
		}
		ctx.SendRouted(simnet.Msg{
			To: peer, Kind: KindCCount, Item: m.com,
			Aux: aux, Aux2: itemLen, Blob: blob,
			Trace: m.trace,
		})
	}
}

// onCount records a peer's count (and piece) for the current epoch.
func (h *Handler) onCount(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	m, ok := st.memberships[msg.Item]
	if !ok || m.counts == nil {
		return
	}
	count, pieceIdx, hasPiece := unpackCount(msg.Aux)
	m.counts[msg.From] = count
	if hasPiece && len(msg.Blob) > 0 {
		if m.gathered == nil {
			m.gathered = make(map[int][]byte)
		}
		if _, dup := m.gathered[pieceIdx]; !dup {
			m.gathered[pieceIdx] = append([]byte(nil), msg.Blob...)
			m.gatheredLen = int(msg.Aux2)
		}
	}
}

// rankOf returns this node's position in the epoch leader ranking:
// members ordered by (count desc, id asc), as in Algorithm 1 ("the node
// with the largest number of random walks, breaking ties arbitrarily yet
// unanimously").
func (h *Handler) rankOf(m *membership) int {
	type entry struct {
		id    simnet.NodeID
		count int
	}
	entries := make([]entry, 0, len(m.counts))
	for id, c := range m.counts {
		entries = append(entries, entry{id, c})
	}
	slices.SortFunc(entries, func(a, b entry) int {
		if a.count != b.count {
			return cmp.Compare(b.count, a.count)
		}
		return cmp.Compare(a.id, b.id)
	})
	for i, e := range entries {
		if e.id == m.owner {
			return i
		}
	}
	return len(entries)
}

// attemptHandover is the epoch leader action (Algorithm 1 rounds r+2/r+3):
// pick a fresh roster from the walk sources recorded in the sample window,
// invite them (with the item payload), and tell the old roster to resign.
// Fallback candidates (k > 0) run the same code if the primary vanished.
// inviteCount is the number of invitations sent per committee formation:
// CommitteeSize scaled by the over-provisioning factor.
func (h *Handler) inviteCount() int {
	return int(h.P.InviteFactor*float64(h.P.CommitteeSize) + 0.5)
}

func (h *Handler) attemptHandover(ctx *simnet.Ctx, st *nodeState, m *membership, epoch, k int) {
	newRoster := dedupeIDs(m.sources, h.inviteCount(), st.id)
	if len(newRoster) == 0 {
		return // no samples: let the next candidate try
	}

	// Prepare the task payload for the new members. If this candidate
	// cannot produce the item (its copy is gone, or fewer than K pieces
	// survived the epoch), it aborts WITHOUT handing over: the surviving
	// members keep their copies/pieces, a better-equipped fallback
	// candidate may still act this epoch, and otherwise the committee
	// retries at the next epoch boundary.
	var blobs [][]byte
	var itemLen uint64
	if m.mode == ModeStore {
		if h.code == nil {
			cp, ok := st.stored[m.key]
			if !ok {
				return
			}
			blobs = make([][]byte, len(newRoster))
			for i := range blobs {
				blobs[i] = cp.data
			}
			itemLen = uint64(cp.itemLen)
		} else {
			// §4.4: reconstruct from the pieces piggybacked on counts,
			// then re-disperse fresh pieces to the new roster.
			item, ok := h.reconstruct(m)
			if !ok {
				h.ctr.idaLost.Inc(ctx.Shard)
				return
			}
			pieces := h.code.Encode(item)
			blobs = make([][]byte, len(newRoster))
			for i := range blobs {
				blobs[i] = pieces[i%len(pieces)].Data
			}
			itemLen = uint64(len(item))
			h.ctr.idaRecoded.Inc(ctx.Shard)
		}
	}
	m.handledEpoch = epoch

	for i, peer := range newRoster {
		pieceIdx := 0
		var blob []byte
		if blobs != nil {
			blob = blobs[i]
			if h.code != nil {
				pieceIdx = i % h.P.CommitteeSize
			}
		}
		ctx.SendRouted(simnet.Msg{
			To: peer, Kind: KindCInvite, Item: m.com,
			Aux:   packInvite(m.base, m.mode, pieceIdx),
			Aux2:  itemLen,
			IDs:   newRoster,
			Blob:  blob,
			Trace: m.trace,
		})
	}
	h.ctr.invitesSent.Add(ctx.Shard, int64(len(newRoster)))
	for _, peer := range m.roster {
		ctx.SendRouted(simnet.Msg{
			To: peer, Kind: KindCHandover, Item: m.com,
			Aux: uint64(epoch), IDs: newRoster,
			Trace: m.trace,
		})
	}
	h.ctr.handovers.Inc(ctx.Shard)
	if k > 0 {
		h.ctr.fallbackHandovers.Inc(ctx.Shard)
	}
}

// reconstruct rebuilds the item from the pieces gathered this epoch.
func (h *Handler) reconstruct(m *membership) ([]byte, bool) {
	if len(m.gathered) < h.code.K() {
		return nil, false
	}
	idxs := make([]int, 0, len(m.gathered))
	for i := range m.gathered {
		idxs = append(idxs, i)
	}
	slices.Sort(idxs)
	pieces := make([]ida.Piece, 0, len(idxs))
	for _, i := range idxs {
		pieces = append(pieces, ida.Piece{Index: i, Data: m.gathered[i]})
	}
	item, err := h.code.Decode(pieces, m.gatheredLen)
	if err != nil {
		return nil, false
	}
	return item, true
}

// dedupeIDs returns up to want distinct ids from src (order preserved),
// excluding self.
func dedupeIDs(src []simnet.NodeID, want int, self simnet.NodeID) []simnet.NodeID {
	out := make([]simnet.NodeID, 0, want)
	seen := make(map[simnet.NodeID]bool, want*2)
	for _, id := range src {
		if id == self || seen[id] {
			continue
		}
		seen[id] = true
		out = append(out, id)
		if len(out) == want {
			break
		}
	}
	return out
}

// onInvite installs (or refreshes) a committee membership, stores the task
// payload, and registers the new member as a landmark for the item.
func (h *Handler) onInvite(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	base, mode, pieceIdx := unpackInvite(msg.Aux)
	com := msg.Item
	key := com
	var searcher simnet.NodeID
	if mode == ModeSearch {
		key = blobKey(msg.Blob)
		searcher = simnet.NodeID(msg.Aux2)
	}
	m := &membership{
		com: com, key: key, mode: mode, base: base,
		searcher: searcher,
		roster:   append([]simnet.NodeID(nil), msg.IDs...),
		joined:   ctx.Round,
		owner:    st.id,
		curEpoch: -1,
		trace:    msg.Trace,
	}
	m.handledEpoch = m.epochOf(ctx.Round, h.P.Period)
	st.memberships[com] = m

	switch mode {
	case ModeStore:
		if len(msg.Blob) > 0 {
			idx := -1
			if h.code != nil {
				idx = pieceIdx
			}
			st.stored[key] = &storedCopy{
				data:     append([]byte(nil), msg.Blob...),
				pieceIdx: idx,
				itemLen:  int(msg.Aux2),
			}
		}
		st.storageLM[key] = &lmEntry{
			roster: m.roster, expiry: ctx.Round + h.P.LandmarkTTL, wave: ctx.Round,
		}
		// A traced store settles when its *creation* invites land (base ==
		// the send round): every founding member emits a done event, and
		// the tracer's first-done-wins aggregation closes the lifecycle
		// deterministically. Handover invites (older base) don't re-close.
		if msg.Trace != 0 && base == ctx.Round-1 {
			if tr := ctx.E.Tracer(); tr != nil {
				tr.Emit(ctx.Shard, telemetry.Event{
					Trace: msg.Trace, Round: int64(ctx.Round), Kind: telemetry.EvOpDone,
					From: uint64(st.id), Item: key, OK: true,
				})
			}
		}
	case ModeSearch:
		h.addSearchTask(st, key, com, searcher, ctx.Round, ctx.Round, msg.Trace)
	}
}

// onHandover processes the old-roster notification: members not re-invited
// resign and drop the task payload (Algorithm 1: "the nodes in Com cease to
// be members of the committee").
func (h *Handler) onHandover(ctx *simnet.Ctx, st *nodeState, msg *simnet.Msg) {
	m, ok := st.memberships[msg.Item]
	if !ok {
		return
	}
	if int(msg.Aux) > m.handledEpoch {
		m.handledEpoch = int(msg.Aux)
	}
	if inRoster(msg.IDs, st.id) {
		return // re-invited: the CInvite (processed earlier) refreshed us
	}
	delete(st.memberships, msg.Item)
	if m.mode == ModeStore {
		delete(st.stored, m.key)
	}
	h.ctr.resignations.Inc(ctx.Shard)
}
