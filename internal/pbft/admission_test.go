package pbft

import (
	"fmt"
	"slices"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/kvstore"
	"rubin/internal/msgnet"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// TestReplayAfterViewChangeIsNotOrderedTwice: three puts to one key execute
// in view 0, the leader crashes, view 1 installs, and the first put is
// replayed over the client's own connections to every live replica — the
// new leader first. What a replica executed stays done across the view
// change, so nobody orders it again: Executed and the store do not move.
func TestReplayAfterViewChangeIsNotOrderedTwice(t *testing.T) {
	c := newTestCluster(t, transport.KindTCP, DefaultConfig())
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	put := func(v string) []byte { return kvstore.EncodeOp(kvstore.OpPut, "k", v) }
	c.Loop.Post(func() {
		cl.Invoke(put("v1"), func([]byte) {
			cl.Invoke(put("v2"), func([]byte) { cl.Invoke(put("v3"), nil) })
		})
	})
	c.Loop.Run()
	c.Crash(0)
	c.Loop.Post(func() {
		for _, rep := range c.Replicas[1:] {
			rep.startViewChange(1)
		}
	})
	c.Loop.Run()
	replay := Encode(Request{Client: cl.ID(), Timestamp: 1, Op: put("v1")})
	c.Loop.Post(func() {
		for _, conn := range cl.conns[1:] {
			if err := conn.Send(msgnet.ClassControl, replay); err != nil {
				t.Error(err)
			}
		}
	})
	c.Loop.Run()
	for i, rep := range c.Replicas[1:] {
		v, _ := c.Apps[i+1].(*kvstore.Store).Get("k")
		if rep.View() != 1 || rep.Executed() != 3 || v != "v3" {
			t.Errorf("replica %d: view %d, executed %d, k=%q; want view 1 with the replay ignored (executed 3, k=v3)",
				i+1, rep.View(), rep.Executed(), v)
		}
	}
}

// TestUnregisteredClientIsNeverOrdered: a replica admits only the ids its
// cluster's front-ends registered. A REQUEST naming another id, sent to
// every replica over a registered client's connections, makes no client
// row and no request row anywhere and is never ordered; the registered
// client's put afterwards is.
func TestUnregisteredClientIsNeverOrdered(t *testing.T) {
	c := newTestCluster(t, transport.KindTCP, DefaultConfig())
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	stranger := Request{Client: 555, Timestamp: 1, Op: kvstore.EncodeOp(kvstore.OpPut, "k", "stranger")}
	raw := Encode(stranger)
	c.Loop.Post(func() {
		for _, conn := range cl.conns {
			if err := conn.Send(msgnet.ClassControl, raw); err != nil {
				t.Error(err)
			}
		}
	})
	c.Loop.Run()
	for i, rep := range c.Replicas {
		if _, filed := rep.requests[stranger.ID()]; filed || rep.client(555) != nil || rep.Executed() != 0 {
			t.Errorf("replica %d: request row %v, client row %v, executed %d; want no row and nothing ordered",
				i, filed, rep.client(555) != nil, rep.Executed())
		}
	}
	done := false
	c.Loop.Post(func() { cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, "k", "v"), func([]byte) { done = true }) })
	c.Loop.Run()
	for i, rep := range c.Replicas {
		if v, _ := c.Apps[i].(*kvstore.Store).Get("k"); !done || rep.Executed() != 1 || v != "v" {
			t.Errorf("replica %d: put done %v, executed %d, k=%q; want the registered client's put alone", i, done, rep.Executed(), v)
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
	c := newTestCluster(t, transport.KindTCP, DefaultConfig())
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	put := func(v string) []byte { return kvstore.EncodeOp(kvstore.OpPut, "k", v) }
	done := 0
	c.Loop.Post(func() { cl.Invoke(put("v1"), func([]byte) { done++ }) })
	c.Loop.Run()
	routes := make([]*msgnet.Peer, len(c.Replicas))
	for i, rep := range c.Replicas {
		routes[i] = rep.client(cl.ID()).conn
	}
	replay := Encode(Request{Client: cl.ID(), Timestamp: 1, Op: put("v1")})
	read := Encode(ReadRequest{Client: 999, Timestamp: 1, Op: kvstore.EncodeOp(kvstore.OpGet, "k", "")})
	c.Loop.Post(func() {
		for _, conn := range other.conns {
			if conn.Send(msgnet.ClassControl, replay) != nil || conn.Send(msgnet.ClassControl, read) != nil {
				t.Error("send failed")
			}
		}
	})
	c.Loop.Run()
	for i, rep := range c.Replicas {
		if rep.client(cl.ID()).conn != routes[i] {
			t.Errorf("replica %d: a replay from another connection moved client %d's reply route", i, cl.ID())
		}
		if rep.client(999) != nil {
			t.Errorf("replica %d: a READ-REQUEST started a client row", i)
		}
	}
	c.Loop.Post(func() { cl.Invoke(put("v2"), func([]byte) { done++ }) })
	c.Loop.Run()
	if done != 2 {
		t.Errorf("%d of 2 puts completed", done)
	}
}

// TestFetchedRequestGetsItsReply: a backup files a request from a FETCH
// answer — the proposal overtook the client's copy — before the client's
// copy, its first request there, arrives: while the request is assigned,
// or once it has executed and its reply found no route. Either way that
// copy sets the client's reply route, and the backup's reply reaches the
// client. Every COMMIT to the backup lands 10 ms late, which holds the
// request assigned there for the first case.
func TestFetchedRequestGetsItsReply(t *testing.T) {
	for _, tc := range []struct {
		arrives sim.Time
		state   reqState
	}{{5 * sim.Millisecond, assigned}, {30 * sim.Millisecond, done}} {
		c := newTestCluster(t, transport.KindTCP, DefaultConfig())
		cl, err := c.AddClient()
		if err != nil {
			t.Fatal(err)
		}
		late := c.Replicas[3]
		replies := 0
		late.SetOutbox(func(to *msgnet.Peer, env []byte) ([]byte, sim.Time) {
			if !slices.Contains(late.peers, to) && MsgType(env[0]) == MsgReply {
				replies++
			}
			return env, 0
		})
		for _, rep := range c.Replicas[:3] {
			rep.SetOutbox(func(to *msgnet.Peer, env []byte) ([]byte, sim.Time) {
				if p := rep.sealed(to, env); len(p) > 0 && MsgType(p[0]) == MsgCommit && to == rep.peers[3] {
					return env, 10 * sim.Millisecond
				}
				return env, 0
			})
		}
		req := Request{Client: cl.ID(), Timestamp: 1, Op: kvstore.EncodeOp(kvstore.OpPut, "k", "v")}
		raw := Encode(req)
		base := c.Loop.Now()
		c.Loop.Post(func() {
			for _, conn := range cl.conns[:3] {
				if conn.Send(msgnet.ClassControl, raw) != nil {
					t.Error("send failed")
				}
			}
		})
		c.Loop.At(base+tc.arrives, func() {
			if row := late.requests[req.ID()]; row.state != tc.state || replies != 0 {
				t.Fatalf("replica 3 before the client's copy: row state %d, %d replies; want state %d from a FETCH answer, none", row.state, replies, tc.state)
			}
			if cl.conns[3].Send(msgnet.ClassControl, raw) != nil {
				t.Error("send failed")
			}
		})
		c.Loop.Run()
		if late.Executed() != 1 || replies != 1 {
			t.Errorf("copy at %v: replica 3 executed %d and sent %d replies; want 1 and 1", tc.arrives, late.Executed(), replies)
		}
	}
}

// TestRequestTablesStayBounded: after 5 000 puts the request table of every
// replica holds no more than the watermark window's worth of batches —
// nothing is outstanding once the loop drains — every row in it is a done
// one whose sequence the window still covers, and the client table has its
// one row.
func TestRequestTablesStayBounded(t *testing.T) {
	cfg := DefaultConfig()
	c := newTestCluster(t, transport.KindRDMA, cfg)
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	const puts, window = 5000, 16
	sent, completed := 0, 0
	var next func()
	next = func() {
		if sent == puts {
			return
		}
		sent++
		cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("k%d", sent%64), "v"), func([]byte) {
			completed++
			next()
		})
	}
	c.Loop.Post(func() {
		for i := 0; i < window; i++ {
			next()
		}
	})
	c.Loop.Run()
	if completed != puts {
		t.Fatalf("completed %d of %d puts", completed, puts)
	}
	bound := int(cfg.LogWindow) * cfg.BatchSize
	for i, rep := range c.Replicas {
		if len(rep.requests) > bound || len(rep.clients) != 1 || rep.arrivals.Len() > bound {
			t.Errorf("replica %d holds %d requests, %d arrivals (bound %d) and %d clients (want 1)",
				i, len(rep.requests), rep.arrivals.Len(), bound, len(rep.clients))
		}
		for id, row := range rep.requests {
			if row.state != done || !rep.inWindow(row.seq) {
				t.Fatalf("replica %d: row %v is in state %d at sequence %d, outside the window above %d",
					i, id, row.state, row.seq, rep.stable)
			}
		}
		if floor := rep.client(cl.ID()).floor; floor == 0 || floor > puts {
			t.Errorf("replica %d: the client's floor is %d after %d puts", i, floor, puts)
		}
	}
}

// preprepare delivers the view's proposal of a one-request batch at seq, by
// ref — and, if the replica holds no copy of the request and so parks the
// proposal, the leader's answer to its FETCH.
func (x *timerFixture) preprepare(seq, ts uint64) *slot {
	req := timerRequest(ts)
	pp := PrePrepare{View: x.r.view, Seq: seq, Digest: BatchDigest([]Request{req}), Refs: []RequestRef{refOf(req)}}
	leader := x.r.Leader(x.r.view)
	x.r.handlePrePrepare(leader, pp, len(Encode(pp)))
	if s := x.r.lookup(seq); s != nil && s.parked {
		x.r.handleEnvelope(sealedBy(x.r, leader, req))
	}
	return x.r.lookup(seq)
}

// commit delivers a proposal and the votes that commit it.
func (x *timerFixture) commit(seq, ts uint64) {
	s := x.preprepare(seq, ts)
	for id := uint32(0); id < 3; id++ {
		s.prepares.set(id, s.pp.Digest)
		s.commits.set(id, s.pp.Digest)
	}
	x.r.tryExecute()
}

// idle fails the test unless the progress timer is idle and the loop has
// nothing left to run.
func (x *timerFixture) idle(t *testing.T, when string) {
	t.Helper()
	at := x.loop.Now()
	if x.loop.Run(); x.r.progress.Pending() || len(x.fired) != 0 || x.loop.Now() != at {
		t.Errorf("%s: the progress timer is not idle (expiries %v, loop ran until %v)", when, x.fired, x.loop.Now())
	}
}

// TestLateCopyOfExecutedRequestIsIgnored: a backup sees a request first in
// its leader's proposal, fetches it from the leader and executes it; the
// client's own copy arrives afterwards, its sequence still inside the
// window and a later reply already cached. The copy changes nothing and
// arms no timer.
func TestLateCopyOfExecutedRequestIsIgnored(t *testing.T) {
	x := newTimerFixture(t)
	x.commit(1, 1)
	x.commit(2, 2)
	x.idle(t, "both executed")
	before := x.r.requests[timerRequest(1).ID()]
	x.loop.RunUntil(sim.Millisecond)
	x.arrive(1)
	if after := x.r.requests[timerRequest(1).ID()]; before.state != done || after.state != done || after.seq != 1 || x.r.arrivals.Len() != 0 {
		t.Errorf("the late copy moved its row from %+v to %+v, %d arrivals queued", before, after, x.r.arrivals.Len())
	}
	x.idle(t, "after the late copy")
}

// TestStablePointPassingUnexecutedRequestsDropsThem: a lagging replica
// watches a request and holds its proposal, never commits it, and adopts a
// checkpoint beyond it. The request is dropped — the checkpoint subsumed it —
// the timer goes idle, and the client's floor says so from then on: the
// client's own copy, delivered late (as E12's empty restart delivers a
// dozen, queued behind the state parts), is not watched all over again.
func TestStablePointPassingUnexecutedRequestsDropsThem(t *testing.T) {
	x := newTimerFixture(t)
	x.arrive(1)
	x.preprepare(1, 1)
	x.preprepare(2, 2)
	if !x.r.progress.Pending() || x.r.watched != timerRequest(1).ID() || len(x.r.requests) != 2 {
		t.Fatalf("before the checkpoint: watching %v (armed %v) with %d rows", x.r.watched, x.r.progress.Pending(), len(x.r.requests))
	}
	x.r.adoptCheckpoint(64, auth.Digest{}, 0)
	if len(x.r.requests) != 0 || x.r.arrivals.Len() != 0 || x.r.pending.Len() != 0 {
		t.Errorf("after the checkpoint: %d rows, %d arrivals, %d pending; want none", len(x.r.requests), x.r.arrivals.Len(), x.r.pending.Len())
	}
	x.idle(t, "after the checkpoint")
	x.arrive(2)
	if floor := x.r.client(100).floor; floor != 2 || len(x.r.requests) != 0 {
		t.Errorf("the subsumed request's late copy: floor %d, %d rows; want floor 2 and the copy ignored", floor, len(x.r.requests))
	}
	x.idle(t, "after the late copy")
	x.arrive(3)
	if !x.r.progress.Pending() || x.r.watched != timerRequest(3).ID() {
		t.Errorf("a request above the floor is not watched (watching %v, armed %v)", x.r.watched, x.r.progress.Pending())
	}
}

// TestRepeatedProposalKeepsItsSlot: any replica can replay the leader's
// sealed PRE-PREPARE, since its MACs pass. Delivered again after this backup
// executed the sequence and released its copy, it changes nothing: the slot
// keeps its proposal, and when the sequence leaves the window its row goes
// and the client's floor rises.
func TestRepeatedProposalKeepsItsSlot(t *testing.T) {
	x := newTimerFixture(t)
	x.commit(1, 1)
	pp := x.r.lookup(1).pp
	x.r.handleEnvelope(sealedBy(x.r, x.r.Leader(pp.View), pp))
	if s := x.r.lookup(1); s == nil || !s.proposed || s.pp.Digest != pp.Digest {
		t.Fatal("a repeat of the executed proposal took it out of its slot")
	}
	x.r.advanceStable(64)
	if _, seen := x.r.requests[timerRequest(1).ID()]; seen || x.r.client(100).floor != 1 {
		t.Errorf("sequence 1 left the window: row present %v, floor %d; want the row gone and floor 1",
			seen, x.r.client(100).floor)
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
	x := newTimerFixture(t)
	x.preprepare(70, 1)
	x.commit(1, 1)
	id := timerRequest(1).ID()
	if row := x.r.requests[id]; x.r.executed != 1 || row.state != done || row.seq != 70 || row.held == 0 {
		t.Fatalf("sequence 1 executed (executed %d): row %+v; want it done, at sequence 70, its copy kept", x.r.executed, row)
	}
	x.r.advanceStable(64)
	if row, seen := x.r.requests[id]; !seen || row.seq != 70 || x.r.client(100).floor != 1 {
		t.Errorf("sequence 1 left the window: row %+v (present %v), floor %d; want the row of slot 70 and floor 1", row, seen, x.r.client(100).floor)
	}
	x.r.advanceStable(128)
	if _, seen := x.r.requests[id]; seen {
		t.Error("sequence 70 left the window and the row is still there")
	}

	x = newTimerFixture(t)
	x.commit(1, 1)
	if s := x.preprepare(70, 1); s == nil || s.proposed {
		t.Error("a replay of a request this backup executed and released was not dropped")
	}
	if row := x.r.requests[id]; row.state != done || row.seq != 1 || row.held != 0 {
		t.Errorf("after the replay: row %+v; want it done at sequence 1, its copy released", row)
	}
}
