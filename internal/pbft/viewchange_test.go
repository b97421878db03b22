package pbft

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/kvstore"
	"rubin/internal/msgnet"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// viewChangeWire runs one leader-crash scenario, with puts of values
// valueBytes long, and returns every VIEW-CHANGE and NEW-VIEW payload in
// the order replicas received them. COMMIT is muted on every replica until
// after the crash, so all six single-request slots are prepared but
// unexecuted when the request timers fire: every VIEW-CHANGE carries six
// proofs and the NEW-VIEW re-proposes six slots — enough entries that
// map-order iteration anywhere on the path would scramble them.
func viewChangeWire(t *testing.T, valueBytes int) [][]byte {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BatchSize = 1
	c := newTestCluster(t, transport.KindTCP, cfg)
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	var wire [][]byte
	tapInbound(c, func(_ int, payload []byte) {
		if mt := MsgType(payload[0]); mt == MsgViewChange || mt == MsgNewView {
			wire = append(wire, bytes.Clone(payload))
		}
	})
	setMute := func(mute bool) {
		for _, rep := range c.Replicas {
			var o Outbox
			if mute {
				o = muted(rep, MsgCommit)
			}
			rep.SetOutbox(o)
		}
	}
	setMute(true)
	const requests = 6
	done := 0
	base := c.Loop.Now()
	c.Loop.Post(func() {
		for k := 0; k < requests; k++ {
			cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("vc%d", k), strings.Repeat("v", valueBytes)), func([]byte) { done++ })
		}
	})
	c.Loop.At(base+10*sim.Millisecond, func() { c.Crash(0) })
	c.Loop.At(base+20*sim.Millisecond, func() { setMute(false) })
	c.Loop.Run()
	if done != requests {
		t.Fatalf("committed %d of %d requests across the view change", done, requests)
	}
	proofs := 0
	for _, payload := range wire {
		if m, err := Decode(payload); err != nil {
			t.Fatalf("captured payload does not decode: %v", err)
		} else if vc, ok := m.(ViewChange); ok && len(vc.Prepared) > proofs {
			proofs = len(vc.Prepared)
		}
	}
	if proofs < 2 {
		t.Fatalf("largest VIEW-CHANGE carried %d prepared proofs; the scenario needs >= 2 to expose ordering", proofs)
	}
	return wire
}

// TestExecutedReproposalIsVotedAgain: a NEW-VIEW re-proposes a batch that
// one replica executed and two others only prepared. Every COMMIT to
// replicas 2 and 3 is withheld, so replica 1 (and leader 0) commit sequence
// 1 while 2 and 3 only prepare it; then the leader crashes, the withholding
// stops, and replica 1 leads view 1. Replicas 2 and 3 need replica 1's
// COMMIT for sequence 1 in view 1 (Castro & Liskov §4.4): a replica that skips a re-proposal it executed leaves them one
// COMMIT short of 2F+1 for good, and the request that follows never
// executes at them.
func TestExecutedReproposalIsVotedAgain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 1
	c := newTestCluster(t, transport.KindTCP, cfg)
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	for _, rep := range c.Replicas {
		rep.SetOutbox(withheld(rep, MsgCommit, 2, 3))
	}
	done := 0
	base := c.Loop.Now()
	c.Loop.Post(func() {
		cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, "s", "1"), func([]byte) { done++ })
	})
	c.Loop.At(base+10*sim.Millisecond, func() {
		executed := []uint64{c.Replicas[1].Executed(), c.Replicas[2].Executed(), c.Replicas[3].Executed()}
		if !slices.Equal(executed, []uint64{1, 0, 0}) {
			t.Fatalf("replicas 1-3 executed %v before the crash, want [1 0 0]", executed)
		}
		c.Crash(0)
		for _, rep := range c.Replicas {
			rep.SetOutbox(nil)
		}
		cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, "after", "2"), func([]byte) { done++ })
	})
	c.Loop.RunUntil(base + 20*cfg.ViewTimeout)
	if *c.Replicas[1].reproposed != 1 {
		t.Errorf("view 1's leader re-proposed %d sequences, want 1", *c.Replicas[1].reproposed)
	}
	for i := 1; i < cfg.N; i++ {
		if r := c.Replicas[i]; r.View() != 1 || r.Executed() != 2 {
			t.Errorf("replica %d: view %d, executed %d; want view 1, executed 2", i, r.View(), r.Executed())
		}
	}
	if done != 2 {
		t.Errorf("%d of 2 requests completed", done)
	}
}

// TestNewViewCannotRewriteAnExecutedBatch: replica 2 has executed client
// 100's request at sequence 1 when a NEW-VIEW re-proposes sequence 1 under
// that batch's digest. With refs that do not hash to the digest — a forged
// timestamp the stable point would raise the client's floor to — the cell
// keeps the refs and view it executed, and nothing is voted; with the true
// refs the batch is proposed again in view 1 and PREPAREd.
func TestNewViewCannotRewriteAnExecutedBatch(t *testing.T) {
	req := Request{Client: 100, Timestamp: 1, Op: kvstore.EncodeOp(kvstore.OpPut, "k", "v")}
	refs, d := refsOf([]Request{req}), BatchDigest([]Request{req})
	forged := []RequestRef{{RequestID{100, 1 << 62}, refs[0].Digest}}
	for name, want := range map[string]struct {
		refs []RequestRef
		view uint64
	}{"forged refs": {forged, 0}, "true refs": {refs, 1}} {
		r := bareReplica(t, 2, DefaultConfig())
		r.handleRequest(req, nil)
		r.handleEnvelope(sealedBy(r, 0, PrePrepare{View: 0, Seq: 1, Digest: d, Refs: refs}))
		for _, id := range []uint32{0, 1, 3} {
			r.handleEnvelope(sealedBy(r, id, Prepare{View: 0, Seq: 1, Digest: d, Replica: id}))
			r.handleEnvelope(sealedBy(r, id, Commit{View: 0, Seq: 1, Digest: d, Replica: id}))
		}
		if r.Executed() != 1 {
			t.Fatalf("%s: replica 2 executed %d before the NEW-VIEW, want 1", name, r.Executed())
		}
		faults := *r.sendFaults
		r.handleEnvelope(sealedBy(r, 1, NewView{View: 1, PrePrepares: []PrePrepare{{View: 1, Seq: 1, Digest: d, Refs: want.refs}}}))
		s := r.lookup(1)
		if r.View() != 1 || s == nil || s.pp.View != want.view || !slices.Equal(s.pp.Refs, refs) || r.Executed() != 1 {
			t.Fatalf("%s: the executed cell reads %+v in view %d, executed %d; want view %d, its own refs", name, s, r.View(), r.Executed(), want.view)
		}
		// A bare replica has no peers: each message it sends is a fault.
		if voted := *r.sendFaults > faults; voted != (want.view == 1) {
			t.Errorf("%s: replica 2 voted %v, want %v", name, voted, want.view == 1)
		}
	}
}

// TestViewChangeBytesDeterministic asserts VIEW-CHANGE and NEW-VIEW bytes
// (which are MAC'd) are a function of the seed alone. Go randomises map
// iteration per range statement, so building the proof list by ranging
// over the log makes this fail within a few repetitions.
func TestViewChangeBytesDeterministic(t *testing.T) {
	want := viewChangeWire(t, 1)
	for run := 1; run < 20; run++ {
		got := viewChangeWire(t, 1)
		if len(got) != len(want) {
			t.Fatalf("run %d: %d view-change payloads, first run had %d", run, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("run %d: payload %d (%s) differs from the first run", run, i, MsgType(want[i][0]))
			}
		}
	}
}

// TestNewLeaderCountsItsOwnViewChange: the new view's leader that joins a
// view change on the F+1st demand has, with its own, 2F+1 — and installs
// the view on the spot rather than waiting for a demand that a crashed
// replica will never send.
func TestNewLeaderCountsItsOwnViewChange(t *testing.T) {
	r := bareReplica(t, 1, DefaultConfig())
	r.handleViewChange(ViewChange{NewView: 1, Replica: 2})
	if r.viewChanging || r.view != 0 {
		t.Fatalf("one demand of F+1: viewChanging=%v view=%d, want the replica unmoved", r.viewChanging, r.view)
	}
	r.handleViewChange(ViewChange{NewView: 1, Replica: 3})
	if r.view != 1 || r.viewChanging {
		t.Fatalf("F+1 demands plus its own: view=%d viewChanging=%v, want view 1 installed", r.view, r.viewChanging)
	}
}

// TestViewChangeSizeIsIndependentOfOpSize: VIEW-CHANGE proofs and NEW-VIEW
// re-proposals name their requests by ref, so the largest of each that
// the leader-crash scenario sends is as long with 32 KiB values as with
// 128 B ones.
func TestViewChangeSizeIsIndependentOfOpSize(t *testing.T) {
	var largest [2]map[MsgType]int
	for i, valueBytes := range []int{128, 32 << 10} {
		largest[i] = map[MsgType]int{}
		for _, payload := range viewChangeWire(t, valueBytes) {
			largest[i][MsgType(payload[0])] = max(largest[i][MsgType(payload[0])], len(payload))
		}
	}
	for _, mt := range []MsgType{MsgViewChange, MsgNewView} {
		if small, large := largest[0][mt], largest[1][mt]; small == 0 || small != large {
			t.Errorf("largest %s: %d bytes with 128 B values, %d with 32 KiB ones; want equal", mt, small, large)
		}
	}
}

// lackingLeader runs one put through a 4-replica group whose view-1
// leader, replica 1, lacks the put's copy when view 0 ends: the client's
// copy never reaches it, and no FETCH sent in view 0 is answered. No
// replica gets a COMMIT of view 0, so the put's progress timer ends the
// view. With executed, replica 1 has the client's copy instead, and alone
// gets view 0's COMMITs: it executes the put and releases its copy; the
// client's copy never reaches replica 3. It returns the cluster, the put's
// reply count, and the FETCHes ("FETCH 1→2") and NEW-VIEWs ("NEW-VIEW →2")
// replicas received, in order.
func lackingLeader(t *testing.T, executed bool) (c *Cluster, replies int, events []string) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BatchSize = 1
	c = newTestCluster(t, transport.KindTCP, cfg)
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	lacking := 1
	if executed {
		lacking = 3
	}
	for _, p := range c.inboundClient[lacking] {
		p.OnMessage(func(msgnet.Class, []byte) {})
	}
	filterInbound(c, func(to int, payload []byte) bool {
		m, err := Decode(payload)
		switch v := m.(type) {
		case Fetch:
			from := c.Replicas[v.Replica]
			if from.View() == 0 && !from.viewChanging {
				return false
			}
			events = append(events, fmt.Sprintf("FETCH %d→%d", v.Replica, to))
		case NewView:
			events = append(events, fmt.Sprintf("NEW-VIEW →%d", to))
		case Commit:
			return v.View > 0 || executed && to == 1
		}
		return err == nil
	})
	c.Loop.Post(func() { cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, "k", "v"), func([]byte) { replies++ }) })
	c.Loop.Run()
	return c, replies, events
}

// checkLackingLeader asserts what both lackingLeader runs must show: the
// new leader FETCHed from senders of the proofs for the put's sequence,
// from no other replica and never from itself (a send to itself has no
// peer and shows as a send fault), and only then sent its NEW-VIEW; every
// replica executed the put into the same state.
func checkLackingLeader(t *testing.T, c *Cluster, replies int, events []string, proofSenders ...int) {
	t.Helper()
	first := slices.IndexFunc(events, func(e string) bool { return strings.HasPrefix(e, "NEW-VIEW") })
	fetched := 0
	for j := range c.Replicas {
		at := slices.Index(events, fmt.Sprintf("FETCH 1→%d", j))
		switch {
		case at >= 0 && !slices.Contains(proofSenders, j):
			t.Errorf("the new leader FETCHed from %d, which sent no proof: %v", j, events)
		case at >= 0 && at < first:
			fetched++
		}
	}
	if fetched == 0 || *c.Replicas[1].sendFaults != 0 {
		t.Errorf("before its NEW-VIEW the new leader FETCHed from %d proof senders and counted %d send faults, want some and none: %v",
			fetched, *c.Replicas[1].sendFaults, events)
	}
	if replies != 1 {
		t.Errorf("the put was answered %d times, want once", replies)
	}
	for i, rep := range c.Replicas {
		if rep.View() != 1 || rep.Executed() != 1 || c.Apps[i].Snapshot() != c.Apps[0].Snapshot() {
			t.Errorf("replica %d: view %d, executed %d, state equal %v; want view 1, the put executed, the group's state",
				i, rep.View(), rep.Executed(), c.Apps[i].Snapshot() == c.Apps[0].Snapshot())
		}
	}
}

// TestNewLeaderFetchesWhatItLacksBeforeNewView: the put prepared at
// replicas 0, 2 and 3 but never reached the new leader. It fetches the
// copy from the proofs' senders before it re-proposes the put.
func TestNewLeaderFetchesWhatItLacksBeforeNewView(t *testing.T) {
	c, replies, events := lackingLeader(t, false)
	checkLackingLeader(t, c, replies, events, 0, 2, 3)
}

// TestNewLeaderFetchesWhatItReleased: the new leader executed the put and
// released its copy; replicas 0 and 2 prepared it, and replica 3 never got
// it. The new leader takes its released copy back from a proof's sender,
// and replica 3, which fetches the re-proposal's copy from the new leader,
// executes it.
func TestNewLeaderFetchesWhatItReleased(t *testing.T) {
	c, replies, events := lackingLeader(t, true)
	checkLackingLeader(t, c, replies, events, 0, 2)
	if at := slices.Index(events, "FETCH 3→1"); at < slices.Index(events, "NEW-VIEW →3") {
		t.Errorf("replica 3 did not fetch the re-proposal's copy from the new leader: %v", events)
	}
	if row := c.Replicas[1].requests[RequestID{100, 1}]; row.state != done || row.digest == (auth.Digest{}) {
		t.Errorf("the new leader's row: state %d, copy held %v; want done, its copy taken back", row.state, row.digest != auth.Digest{})
	}
}

// TestNewViewCannotReplaceACopy: a backup holds client 100's copy of a
// request when a NEW-VIEW re-proposes that request by a ref with another
// digest, or by its own ref under a digest the refs do not hash to. Either
// way the backup's copy stays as it was, and it PREPAREs nothing — a bare
// replica has no peers, so a PREPARE would show as a send fault.
func TestNewViewCannotReplaceACopy(t *testing.T) {
	req := Request{Client: 100, Timestamp: 1, Op: kvstore.EncodeOp(kvstore.OpPut, "k", "v")}
	other := []Request{{Client: 100, Timestamp: 1, Op: kvstore.EncodeOp(kvstore.OpPut, "k", "w")}}
	for name, pp := range map[string]PrePrepare{
		"another digest":    {View: 1, Seq: 1, Digest: BatchDigest(other), Refs: refsOf(other)},
		"refs do not match": {View: 1, Seq: 1, Digest: BatchDigest(nil), Refs: refsOf([]Request{req})},
	} {
		backup := bareReplica(t, 2, DefaultConfig())
		backup.handleRequest(req, nil)
		backup.handleEnvelope(sealedBy(backup, 1, NewView{View: 1, PrePrepares: []PrePrepare{pp}}))
		if backup.View() != 1 {
			t.Fatalf("%s: the NEW-VIEW was not installed", name)
		}
		if row := backup.requests[req.ID()]; !bytes.Equal(row.Op, req.Op) || row.digest != refOf(req).Digest {
			t.Errorf("%s: the backup's copy was replaced", name)
		}
		if s := backup.lookup(1); s == nil || s.proposed || s.sentPrep || *backup.sendFaults != 0 {
			t.Errorf("%s: the backup kept the re-proposal or sent %d messages; want it dropped, nothing sent", name, *backup.sendFaults)
		}
	}
}
