package protocol

import (
	"testing"

	"dynp2p/internal/churn"
	"dynp2p/internal/simnet"
)

// retireSim is a no-churn sim with one stored item whose storage
// committee and landmarks have settled.
func retireSim(t *testing.T, seed uint64) (*sim, uint64, []byte) {
	t.Helper()
	s := newSim(t, 256, churn.ZeroLaw{}, 0, seed)
	s.warm()
	key := uint64(77)
	data := itemBytes(key, 64)
	s.h.RequestStore(s.e, 0, key, data)
	s.run(s.h.P.Period)
	return s, key, data
}

// freezeStorage stops storage waves and handovers once the item has
// settled, so every storage landmark keeps one registration and no node
// becomes a new one while a test search runs.
func (s *sim) freezeStorage() {
	s.h.P.WaveEvery = 1 << 20
	s.h.P.Period = 1 << 20
}

// comState counts, across all nodes, the search memberships and landmark
// tasks belonging to search committee com.
func (s *sim) comState(key, com uint64) (members, tasks int) {
	for i := range s.h.states {
		st := &s.h.states[i]
		if _, ok := st.memberships[com]; ok {
			members++
		}
		for _, t := range st.searchLM[key] {
			if t.com == com {
				tasks++
			}
		}
	}
	return members, tasks
}

// startSearch issues a retrieval and runs until its committee invites
// have landed, returning the search committee id.
func (s *sim) startSearch(t *testing.T, slot int, key uint64, want []byte) uint64 {
	t.Helper()
	s.h.RequestRetrieve(s.e, slot, key, want)
	for i := 0; i < s.soup.Params().WalkLength; i++ {
		s.run(1)
		if srch, ok := s.h.states[slot].searches[key]; ok {
			s.run(1)
			return srch.com
		}
	}
	t.Fatalf("slot %d never formed a search committee", slot)
	return 0
}

// awaitResult runs round by round until one result arrives.
func (s *sim) awaitResult(t *testing.T) SearchResult {
	t.Helper()
	for i := 0; i < s.h.P.SearchTTL+5; i++ {
		s.run(1)
		if rs := s.h.DrainResults(); len(rs) > 0 {
			return rs[0]
		}
	}
	t.Fatal("retrieval never completed")
	return SearchResult{}
}

// TestRetireCascade: once a search succeeds, its retire reaches the
// search committee and cascades down every landmark tree, so within
// TreeDepth+2 rounds no membership and no task for that committee is
// left anywhere, and inquiries stop.
func TestRetireCascade(t *testing.T) {
	s, key, data := retireSim(t, 21)
	const searcher = 200
	com := s.startSearch(t, searcher, key, data)
	if m, tasks := s.comState(key, com); m == 0 || tasks == 0 {
		t.Fatalf("search formed %d memberships and %d tasks, want both > 0", m, tasks)
	}
	if res := s.awaitResult(t); !res.Success {
		t.Fatalf("retrieval failed: %+v", res)
	}
	s.run(s.h.P.TreeDepth + 2)
	if m, tasks := s.comState(key, com); m != 0 || tasks != 0 {
		t.Fatalf("%d memberships and %d tasks survive the retire", m, tasks)
	}
	before := s.h.Counters().Inquiries
	s.run(s.h.P.WaveEvery + 2)
	if after := s.h.Counters().Inquiries; after != before {
		t.Fatalf("inquiries kept growing after the retire: %d -> %d", before, after)
	}
}

// delayer wraps the handler and holds every inbox message that hold
// selects back by delay rounds. Slots run concurrently; each touches only
// its own queue.
type delayer struct {
	*Handler
	delay int
	hold  func(slot int, m *simnet.Msg) bool
	held  [][]heldMsg
}

type heldMsg struct {
	msg simnet.Msg
	due int
}

func (d *delayer) HandleRound(ctx *simnet.Ctx) {
	var inbox []simnet.Msg
	for i := range ctx.Inbox {
		if m := &ctx.Inbox[i]; d.hold(ctx.Slot, m) {
			d.held[ctx.Slot] = append(d.held[ctx.Slot], heldMsg{*m, ctx.Round + d.delay})
			continue
		}
		inbox = append(inbox, ctx.Inbox[i])
	}
	q := d.held[ctx.Slot][:0]
	for _, hm := range d.held[ctx.Slot] {
		if hm.due <= ctx.Round {
			inbox = append(inbox, hm.msg)
		} else {
			q = append(q, hm)
		}
	}
	d.held[ctx.Slot] = q
	ctx.Inbox = inbox
	d.Handler.HandleRound(ctx)
}

// TestRetireSameKeyReissue: a searcher that re-issues the same key the
// round after a success keeps its new committee and landmarks — the old
// search's retire is scoped to the old committee id, however late it
// arrives — and the new search succeeds.
func TestRetireSameKeyReissue(t *testing.T) {
	s, key, data := retireSim(t, 22)
	// The searcher, picked among non-landmarks, never learns the roster
	// itself and has to wait for a Found.
	s.freezeStorage()
	searcher := 100
	for s.h.states[searcher].storageLM[key] != nil {
		searcher++
	}
	old := s.startSearch(t, searcher, key, data)
	if res := s.awaitResult(t); !res.Success {
		t.Fatalf("first retrieval failed: %+v", res)
	}
	// The old search's retires arrive late at every hop, and so do the
	// Founds reaching the searcher, so the new search is still running
	// while the old cascade passes through its landmarks.
	d := &delayer{Handler: s.h, delay: 4, held: make([][]heldMsg, s.e.N()),
		hold: func(slot int, m *simnet.Msg) bool {
			retire := m.Kind == KindLGrow && m.Aux&growRetire != 0 && m.Item == old
			return retire || (slot == searcher && m.Kind == KindSFound)
		}}
	s.h.RequestRetrieve(s.e, searcher, key, data)
	// Without churn, and well inside LandmarkTTL, a node that became a
	// landmark for the new search stays one while the search runs,
	// whatever the old search's retire cascade passes through.
	var res SearchResult
	landmark := map[int]bool{}
	overlap := 0
	for i := 0; i < s.h.P.SearchTTL+5; i++ {
		s.e.Run(d, 1)
		if rs := s.h.DrainResults(); len(rs) > 0 {
			res = rs[0]
			break
		}
		srch, ok := s.h.states[searcher].searches[key]
		if !ok {
			continue
		}
		com := srch.com
		if com == old {
			t.Fatal("re-issued search reused the old committee id")
		}
		for slot := range s.h.states {
			st := &s.h.states[slot]
			has := findSearchTask(st, key, com) != nil
			if landmark[slot] && !has {
				t.Fatalf("round %d: slot %d lost its task for the new search", s.e.Round(), slot)
			}
			landmark[slot] = has
			if has && findSearchTask(st, key, old) != nil {
				overlap++
			}
		}
	}
	if !res.Success {
		t.Fatalf("re-issued retrieval failed: %+v", res)
	}
	if overlap == 0 {
		t.Fatal("no node held tasks for both searches: the test did not exercise the scoping")
	}
}

// foundTally wraps the handler: the searcher's inbox loses every data
// reply (so its search keeps inquiring until the deadline), every Found
// it receives is counted per sending landmark, and every inquiry from
// search com that reaches a registered storage landmark is counted per
// slot (slots run concurrently; each writes only its own counter).
type foundTally struct {
	*Handler
	searcher int
	key, com uint64
	founds   map[simnet.NodeID]int
	inquired []int
}

func (f *foundTally) HandleRound(ctx *simnet.Ctx) {
	if ent, ok := f.states[ctx.Slot].storageLM[f.key]; ok && ctx.Round < ent.expiry {
		for _, m := range ctx.Inbox {
			if m.Kind == KindSInquire && m.Aux == f.com {
				f.inquired[ctx.Slot]++
			}
		}
	}
	if ctx.Slot == f.searcher {
		kept := ctx.Inbox[:0]
		for _, m := range ctx.Inbox {
			switch m.Kind {
			case KindSData:
				continue
			case KindSFound:
				f.founds[m.From]++
			}
			kept = append(kept, m)
		}
		ctx.Inbox = kept
	}
	f.Handler.HandleRound(ctx)
}

// TestFoundOnce: a storage landmark answers each search at most once per
// registration, however often the search's landmarks inquire it. With
// storage frozen every landmark keeps one registration for the whole
// search.
func TestFoundOnce(t *testing.T) {
	s, key, data := retireSim(t, 23)
	s.freezeStorage()
	const searcher = 99
	f := &foundTally{
		Handler: s.h, searcher: searcher, key: key,
		founds: map[simnet.NodeID]int{}, inquired: make([]int, s.e.N()),
	}
	f.com = s.startSearch(t, searcher, key, data)
	s.e.Run(f, s.h.P.SearchTTL+2)
	if rs := s.h.DrainResults(); len(rs) != 1 || rs[0].Success {
		t.Fatalf("want one failed (data-starved) retrieval, got %+v", rs)
	}
	if len(f.founds) == 0 {
		t.Fatal("no Found reached the searcher")
	}
	for from, n := range f.founds {
		if n > 1 {
			t.Errorf("landmark %d sent %d Founds to one search", from, n)
		}
	}
	repeats := 0
	for _, n := range f.inquired {
		if n > 1 {
			repeats++
		}
	}
	if repeats == 0 {
		t.Fatal("no landmark was inquired twice: the test did not exercise repeats")
	}
}
