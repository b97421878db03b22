package pbft

import (
	"slices"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/kvstore"
	"rubin/internal/msgnet"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// TestReplayAfterViewChangeIsNotOrderedTwice: three puts to one key execute
// in view 0, one batch each, the leader falls silent — nothing reaches it
// — view 1 installs, and the first put is replayed over the client's own
// connections to every live replica, the new leader first. What a replica
// executed stays done across the view change, so nobody orders it again:
// Executed and the store do not move.
func TestReplayAfterViewChangeIsNotOrderedTwice(t *testing.T) {
	h := newStepCluster(t, transport.KindTCP, DefaultConfig())
	live := func(e envelope) bool { return e.to != 0 }
	for ts := uint64(1); ts <= 3; ts++ {
		h.submit(ts, 0, 1, 2, 3)
		h.drain(everything)
	}
	h.outside("startViewChange")
	for _, rep := range h.Replicas[1:] {
		rep.startViewChange(1)
	}
	h.drain(live)
	h.submit(1, 1, 2, 3)
	h.drain(live)
	for i, rep := range h.Replicas[1:] {
		if applied := h.Apps[i+1].(*kvstore.Store).Applied(); rep.View() != 1 || rep.Executed() != 3 || applied != 3 {
			h.errorf("replica %d: view %d, executed %d, %d puts applied; want view 1 with the replay ignored (executed and applied 3)",
				i+1, rep.View(), rep.Executed(), applied)
		}
	}
}

// TestUnregisteredClientIsNeverOrdered: a replica admits only the ids its
// cluster's front-ends registered. A REQUEST naming another id, sent to
// every replica over a registered client's connections, makes no client
// row and no request row anywhere and is never ordered; the registered
// client's put afterwards is.
func TestUnregisteredClientIsNeverOrdered(t *testing.T) {
	h := newStepCluster(t, transport.KindTCP, DefaultConfig())
	stranger := Request{Client: 555, Timestamp: 1, Op: kvstore.EncodeOp(kvstore.OpPut, "k", "stranger")}
	h.outside("a send on the client's connections")
	for _, conn := range h.Clients[0].conns {
		must(t, conn.Send(msgnet.ClassControl, Encode(stranger)))
	}
	h.drain(everything)
	for i, rep := range h.Replicas {
		if _, filed := rep.requests[stranger.ID()]; filed || rep.client(555) != nil || rep.Executed() != 0 {
			h.errorf("replica %d: request row %v, client row %v, executed %d; want no row and nothing ordered",
				i, filed, rep.client(555) != nil, rep.Executed())
		}
	}
	h.submit(1, 0, 1, 2, 3)
	h.drain(everything)
	for i, rep := range h.Replicas {
		if v, _ := h.Apps[i].(*kvstore.Store).Get("k"); !h.completed(1) || rep.Executed() != 1 || v != "v" {
			h.errorf("replica %d: put answered by %v, executed %d, k=%q; want the registered client's put alone", i, h.answers(1), rep.Executed(), v)
		}
	}
}

// TestReplayedRequestLeavesTheReplyRoute: a client's reply route at a
// replica is the connection of its latest admitted request. A second
// connection that replays the client's executed request — bytes any node on
// the client's path has seen — is answered on that route and moves nothing,
// and a READ-REQUEST is answered where it came from and starts no client
// row. So the client's next put still collects its replies.
func TestReplayedRequestLeavesTheReplyRoute(t *testing.T) {
	h := newStepCluster(t, transport.KindTCP, DefaultConfig())
	h.outside("AddClient")
	other, err := h.AddClient()
	must(t, err)
	h.submit(1, 0, 1, 2, 3)
	h.drain(everything)
	replay := Encode(putRequest(1))
	read := Encode(ReadRequest{Client: 999, Timestamp: 1, Op: kvstore.EncodeOp(kvstore.OpGet, "k", "")})
	for _, conn := range other.conns {
		if conn.Send(msgnet.ClassControl, replay) != nil || conn.Send(msgnet.ClassControl, read) != nil {
			t.Fatal("send failed")
		}
	}
	answered := len(h.replies)
	h.drain(everything)
	for _, e := range h.replies[answered:] {
		if route := h.inboundClient[e.from][0]; e.typ() == MsgReply && e.conn != route || e.typ() == MsgReadReply && e.conn == route {
			h.errorf("replica %d sent its %s to the wrong connection", e.from, e.typ())
		}
	}
	if len(h.replies) != answered+2*len(h.Replicas) {
		h.errorf("the replay and the read were answered %d times, want once each per replica", len(h.replies)-answered)
	}
	for i, rep := range h.Replicas {
		if rep.client(100).conn != h.inboundClient[i][0] {
			h.errorf("replica %d: a replay from another connection moved client 100's reply route", i)
		}
		if rep.client(999) != nil {
			h.errorf("replica %d: a READ-REQUEST started a client row", i)
		}
	}
	h.submit(2, 0, 1, 2, 3)
	h.drain(everything)
	if !h.completed(1) || !h.completed(2) {
		h.errorf("the puts before and after the replay completed: %v, %v; want both", h.completed(1), h.completed(2))
	}
}

// TestFetchedRequestGetsItsReply: a backup files a request from a FETCH
// answer — the proposal overtook the client's copy — before the client's
// copy, its first request there, arrives: while the request is assigned
// (no COMMIT has reached the backup), or once it has executed and its
// reply found no route. Either way that copy sets the client's reply
// route, and the backup's reply reaches the client.
func TestFetchedRequestGetsItsReply(t *testing.T) {
	for _, state := range []reqState{assigned, done} {
		h := newStepCluster(t, transport.KindTCP, DefaultConfig())
		late := h.Replicas[3]
		toLate := func(e envelope) bool { return e.typ() == MsgCommit && e.to == 3 }
		h.submit(1, 0, 1, 2)
		h.drain(func(e envelope) bool { return !toLate(e) })
		if state == done {
			h.drain(toLate)
		}
		if row := late.requests[putRequest(1).ID()]; row.state != state || slices.Contains(h.answers(1), 3) {
			h.fatalf("replica 3 before the client's copy: row state %d, answered %v; want state %d from a FETCH answer, no reply", row.state, h.answers(1), state)
		}
		h.submit(1, 3)
		h.drain(everything)
		if got := h.answers(1); late.Executed() != 1 || !slices.Equal(got, []int{0, 1, 2, 3}) {
			h.errorf("copy while %d: replica 3 executed %d, the replicas answering are %v; want 1 and each once", state, late.Executed(), got)
		}
	}
}

// TestRequestTablesStayBounded: after 5 000 puts, 16 in flight at all
// times — each put's F+1st reply submits the put 16 after it, so requests
// straddle every checkpoint and window advance — the request table of
// every replica holds no more than the watermark window's worth of batches
// — nothing is outstanding once the loop drains — every row in it is a
// done one whose sequence the window still covers, and the client table
// has its one row.
func TestRequestTablesStayBounded(t *testing.T) {
	cfg := DefaultConfig()
	h := newStepCluster(t, transport.KindRDMA, cfg)
	const puts, window = 5000, 16
	for ts := uint64(1); ts <= window; ts++ {
		h.submit(ts, 0, 1, 2, 3)
	}
	replies, seen := map[uint64]int{}, 0
	for {
		if len(h.pending) == 0 {
			if h.settle(0); len(h.pending) == 0 {
				break
			}
		}
		h.deliver(0)
		for ; seen < len(h.replies); seen++ {
			m, _ := h.replies[seen].msg().(Reply)
			if replies[m.Timestamp]++; replies[m.Timestamp] == cfg.F+1 && m.Timestamp+window <= puts {
				h.submit(m.Timestamp+window, 0, 1, 2, 3)
			}
		}
	}
	bound := int(cfg.LogWindow) * cfg.BatchSize
	for i, rep := range h.Replicas {
		if applied := h.Apps[i].(*kvstore.Store).Applied(); applied != puts {
			h.fatalf("replica %d applied %d of %d puts", i, applied, puts)
		}
		if len(rep.requests) > bound || len(rep.clients) != 1 || rep.arrivals.Len() > bound {
			h.errorf("replica %d holds %d requests, %d arrivals (bound %d) and %d clients (want 1)",
				i, len(rep.requests), rep.arrivals.Len(), bound, len(rep.clients))
		}
		for id, row := range rep.requests {
			if row.state != done || !rep.inWindow(row.seq) {
				h.fatalf("replica %d: row %v is in state %d at sequence %d, outside the window above %d",
					i, id, row.state, row.seq, rep.stable)
			}
		}
		if floor := rep.client(100).floor; floor == 0 || floor > puts {
			h.errorf("replica %d: the client's floor is %d after %d puts", i, floor, puts)
		}
	}
}

// TestLateCopyOfExecutedRequestIsIgnored: a backup sees a request first in
// its leader's proposal, fetches it from the leader and executes it; the
// client's own copy arrives afterwards, its sequence still inside the
// window and a later reply already cached. The copy changes nothing and
// arms no timer.
func TestLateCopyOfExecutedRequestIsIgnored(t *testing.T) {
	h := newStepCluster(t, transport.KindTCP, DefaultConfig())
	r, id := h.Replicas[3], putRequest(1).ID()
	h.commit(3, 1, 1)
	h.commit(3, 2, 2)
	h.idle("both executed")
	before := r.requests[id]
	h.settle(sim.Millisecond)
	h.submit(1, 3)
	if after := r.requests[id]; before.state != done || after.state != done || after.seq != 1 || r.arrivals.Len() != 0 {
		h.errorf("the late copy moved its row from %+v to %+v, %d arrivals queued", before, after, r.arrivals.Len())
	}
	h.idle("after the late copy")
}

// TestStablePointPassingUnexecutedRequestsDropsThem: a lagging replica
// watches a request and holds its proposal, never commits it, and adopts a
// checkpoint beyond it. The request is dropped — the checkpoint subsumed it —
// the timer goes idle, and the client's floor says so from then on: the
// client's own copy, delivered late (as E12's empty restart delivers a
// dozen, queued behind the state parts), is not watched all over again.
func TestStablePointPassingUnexecutedRequestsDropsThem(t *testing.T) {
	h := newStepCluster(t, transport.KindTCP, DefaultConfig())
	r := h.Replicas[3]
	h.submit(1, 3)
	h.propose(3, 1, 1)
	h.propose(3, 2, 2)
	if !r.progress.Pending() || r.watched != putRequest(1).ID() || len(r.requests) != 2 {
		h.fatalf("before the checkpoint: watching %v (armed %v) with %d rows", r.watched, r.progress.Pending(), len(r.requests))
	}
	r.adoptCheckpoint(64, auth.Digest{}, 0)
	if len(r.requests) != 0 || r.arrivals.Len() != 0 || r.pending.Len() != 0 {
		h.errorf("after the checkpoint: %d rows, %d arrivals, %d pending; want none", len(r.requests), r.arrivals.Len(), r.pending.Len())
	}
	h.idle("after the checkpoint")
	h.submit(2, 3)
	if floor := r.client(100).floor; floor != 2 || len(r.requests) != 0 {
		h.errorf("the subsumed request's late copy: floor %d, %d rows; want floor 2 and the copy ignored", floor, len(r.requests))
	}
	h.idle("after the late copy")
	h.submit(3, 3)
	if !r.progress.Pending() || r.watched != putRequest(3).ID() {
		h.errorf("a request above the floor is not watched (watching %v, armed %v)", r.watched, r.progress.Pending())
	}
}

// TestRepeatedProposalKeepsItsSlot: any replica can replay the leader's
// sealed PRE-PREPARE, since its MACs pass. Delivered again after this backup
// executed the sequence and released its copy, it changes nothing: the slot
// keeps its proposal, and when the sequence leaves the window its row goes
// and the client's floor rises.
func TestRepeatedProposalKeepsItsSlot(t *testing.T) {
	h := newStepCluster(t, transport.KindTCP, DefaultConfig())
	r := h.Replicas[3]
	h.commit(3, 1, 1)
	pp := r.lookup(1).pp
	h.inject(int(r.Leader(pp.View)), 3, pp)
	if s := r.lookup(1); s == nil || !s.proposed || s.pp.Digest != pp.Digest {
		h.fatalf("a repeat of the executed proposal took it out of its slot")
	}
	r.advanceStable(64)
	if _, seen := r.requests[putRequest(1).ID()]; seen || r.client(100).floor != 1 {
		h.errorf("sequence 1 left the window: row present %v, floor %d; want the row gone and floor 1", seen, r.client(100).floor)
	}
}

// TestRowFollowsItsLatestSlot: a request that a (replaying) leader proposes
// at sequence 70 and at sequence 1 has one row, and the row is the later
// slot's: executing sequence 1 keeps the copy slot 70 still names, and the
// first slot leaving the window raises the floor but leaves the row to the
// slot that still holds the request. Proposed again only after this backup
// executed it and released its copy, the request matches no ref of the
// replay, and the proposal is dropped.
func TestRowFollowsItsLatestSlot(t *testing.T) {
	h := newStepCluster(t, transport.KindTCP, DefaultConfig())
	r, id := h.Replicas[3], putRequest(1).ID()
	h.propose(3, 70, 1)
	h.commit(3, 1, 1)
	if row := r.requests[id]; r.executed != 1 || row.state != done || row.seq != 70 || row.held == 0 {
		h.fatalf("sequence 1 executed (executed %d): row %+v; want it done, at sequence 70, its copy kept", r.executed, row)
	}
	r.advanceStable(64)
	if row, seen := r.requests[id]; !seen || row.seq != 70 || r.client(100).floor != 1 {
		h.errorf("sequence 1 left the window: row %+v (present %v), floor %d; want the row of slot 70 and floor 1", row, seen, r.client(100).floor)
	}
	r.advanceStable(128)
	if _, seen := r.requests[id]; seen {
		h.errorf("sequence 70 left the window and the row is still there")
	}

	h = newStepCluster(t, transport.KindTCP, DefaultConfig())
	r = h.Replicas[3]
	h.commit(3, 1, 1)
	if s := h.propose(3, 70, 1); s == nil || s.proposed {
		h.errorf("a replay of a request this backup executed and released was not dropped")
	}
	if row := r.requests[id]; row.state != done || row.seq != 1 || row.held != 0 {
		h.errorf("after the replay: row %+v; want it done at sequence 1, its copy released", row)
	}
}
