package pbft

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/transport"
)

// viewChangeWire runs one leader-crash scenario, with puts of values
// valueBytes long, and returns every VIEW-CHANGE and NEW-VIEW payload in
// the order replicas received them. No COMMIT of view 0 is delivered, so
// all six single-request slots are prepared but unexecuted when the
// backups' timers fire: every VIEW-CHANGE carries six proofs and the
// NEW-VIEW re-proposes six slots — enough entries that map-order iteration
// anywhere on the path would scramble them.
func viewChangeWire(t *testing.T, valueBytes int) (wire [][]byte) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BatchSize = 1
	h := newStepCluster(t, transport.KindTCP, cfg)
	h.value = strings.Repeat("v", valueBytes)
	const requests = 6
	for ts := uint64(1); ts <= requests; ts++ {
		h.submit(ts, 0, 1, 2, 3)
	}
	muted := func(e envelope) bool { c, ok := e.msg().(Commit); return ok && c.View == 0 }
	h.drain(func(e envelope) bool { return !muted(e) })
	for i := 1; i < 4; i++ {
		h.fire(i)
	}
	h.drain(func(e envelope) bool { return e.to != 0 && !muted(e) })
	proofs := 0
	for _, e := range h.done {
		switch m := e.msg().(type) {
		case ViewChange:
			proofs = max(proofs, len(m.Prepared))
			wire = append(wire, e.payload)
		case NewView:
			wire = append(wire, e.payload)
		}
	}
	for ts := uint64(1); ts <= requests; ts++ {
		if got := h.answers(ts); !h.completed(ts) {
			h.fatalf("request %d was answered by replicas %v across the view change, want F+1 matching", ts, got)
		}
	}
	if proofs < 2 {
		h.fatalf("largest VIEW-CHANGE carried %d prepared proofs; the scenario needs >= 2 to expose ordering", proofs)
	}
	return wire
}

// TestExecutedReproposalIsVotedAgain: a NEW-VIEW re-proposes a batch that
// one replica executed and two others only prepared. Only that replica and
// leader 0 get view 0's COMMITs, so they commit sequence 1 while the other
// two only prepare it; then the leader falls silent — nothing reaches it,
// and its timer never fires — and replica 1 leads view 1. The two need the
// executed replica's vote for sequence 1 in view 1 (Castro & Liskov §4.4):
// its PREPARE if it backs view 1, its COMMIT either way. A replica that
// skips a re-proposal it executed leaves them one vote short of a quorum
// for good, and the request that follows never executes at them.
func TestExecutedReproposalIsVotedAgain(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 1
	for _, executor := range []int{1, 2} {
		h := newStepCluster(t, transport.KindTCP, cfg)
		reproposal(h, executor)
		if *h.Replicas[1].reproposed != 1 {
			h.errorf("executor %d: view 1's leader re-proposed %d sequences, want 1", executor, *h.Replicas[1].reproposed)
		}
		for i := 1; i < cfg.N; i++ {
			if r := h.Replicas[i]; r.View() != 1 || r.Executed() != 2 {
				h.errorf("executor %d: replica %d: view %d, executed %d; want view 1, executed 2", executor, i, r.View(), r.Executed())
			}
		}
		for ts := uint64(1); ts <= 2; ts++ {
			if got := h.answers(ts); !h.completed(ts) {
				h.errorf("executor %d: request %d was answered by replicas %v, want F+1 matching", executor, ts, got)
			}
		}
	}
}

// reproposal takes TestExecutedReproposalIsVotedAgain's steps, replica
// executor executing sequence 1 in view 0.
func reproposal(h *stepCluster, executor int) {
	withheld := func(e envelope) bool {
		c, ok := e.msg().(Commit)
		return ok && c.View == 0 && e.to != 0 && e.to != executor
	}
	h.submit(1, 0, 1, 2, 3)
	h.drain(func(e envelope) bool { return !withheld(e) })
	for i := 1; i < 4; i++ {
		if got, want := h.Replicas[i].Executed() == 1, i == executor; got != want {
			h.fatalf("replica %d executed sequence 1 before the leader fell silent: %v, want %v", i, got, want)
		}
	}
	h.submit(2, 1, 2, 3)
	for i := 1; i < 4; i++ {
		h.fire(i)
	}
	h.drain(func(e envelope) bool { return e.to != 0 && !withheld(e) })
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

// fetchingLeader takes the steps of one put through a 4-replica group whose
// view-1 leader, replica 1, lacks the put's copy when view 0 ends: the
// client's copy never reaches it, and its FETCH of view 0 is never
// delivered. No replica gets a COMMIT of view 0, so the put's progress
// timers end the view. With executed, replica 1 has the client's copy
// instead, and alone gets view 0's COMMITs: it executes the put and
// releases its copy; the client's copy never reaches replica 3. It returns
// the FETCHes ("FETCH 1→2") and NEW-VIEWs ("NEW-VIEW →2") delivered, in
// order.
func fetchingLeader(h *stepCluster, executed bool) (events []string) {
	if executed {
		h.submit(1, 0, 1, 2)
	} else {
		h.submit(1, 0, 2, 3)
	}
	stale := func(e envelope) bool { // view 0's FETCHes and its COMMITs but replica 1's with executed
		c, commit := e.msg().(Commit)
		return e.typ() == MsgFetch || commit && c.View == 0 && !(executed && e.to == 1)
	}
	h.drain(func(e envelope) bool { return !stale(e) })
	viewChange := h.sent
	for i, rep := range h.Replicas {
		if rep.progress.Pending() {
			h.fire(i)
		}
	}
	h.drain(func(e envelope) bool { return e.n >= viewChange || !stale(e) })
	for _, e := range h.done {
		switch m := e.msg().(type) {
		case Fetch:
			events = append(events, fmt.Sprintf("FETCH %d→%d", m.Replica, e.to))
		case NewView:
			events = append(events, fmt.Sprintf("NEW-VIEW →%d", e.to))
		}
	}
	return events
}

// checkFetchingLeader asserts what both fetchingLeader runs must show: the
// new leader FETCHed from senders of the proofs for the put's sequence,
// from no other replica and never from itself (a send to itself has no
// peer and shows as a send fault), and only then sent its NEW-VIEW; every
// replica executed the put into the same state, and F+1 answered it, none
// twice.
func checkFetchingLeader(h *stepCluster, events []string, proofSenders ...int) {
	h.t.Helper()
	first := slices.IndexFunc(events, func(e string) bool { return strings.HasPrefix(e, "NEW-VIEW") })
	fetched := 0
	for j := range h.Replicas {
		at := slices.Index(events, fmt.Sprintf("FETCH 1→%d", j))
		switch {
		case at >= 0 && !slices.Contains(proofSenders, j):
			h.errorf("the new leader FETCHed from %d, which sent no proof: %v", j, events)
		case at >= 0 && at < first:
			fetched++
		}
	}
	if fetched == 0 || *h.Replicas[1].sendFaults != 0 {
		h.errorf("before its NEW-VIEW the new leader FETCHed from %d proof senders and counted %d send faults, want some and none: %v",
			fetched, *h.Replicas[1].sendFaults, events)
	}
	if got := h.answers(1); !h.completed(1) || len(slices.Compact(slices.Clone(got))) < len(got) {
		h.errorf("the put was answered by replicas %v, want F+1 matching, none twice", got)
	}
	for i, rep := range h.Replicas {
		if rep.View() != 1 || rep.Executed() != 1 || h.Apps[i].Snapshot() != h.Apps[0].Snapshot() {
			h.errorf("replica %d: view %d, executed %d, state equal %v; want view 1, the put executed, the group's state",
				i, rep.View(), rep.Executed(), h.Apps[i].Snapshot() == h.Apps[0].Snapshot())
		}
	}
}

// TestNewLeaderFetchesWhatItLacksBeforeNewView: the put prepared at
// replicas 0, 2 and 3 but never reached the new leader. It fetches the
// copy from the proofs' senders before it re-proposes the put.
func TestNewLeaderFetchesWhatItLacksBeforeNewView(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 1
	h := newStepCluster(t, transport.KindTCP, cfg)
	checkFetchingLeader(h, fetchingLeader(h, false), 0, 2, 3)
}

// TestNewLeaderFetchesWhatItReleased: the new leader executed the put and
// released its copy; replicas 0 and 2 prepared it, and replica 3 never got
// it. The new leader takes its released copy back from a proof's sender,
// and replica 3, which fetches the re-proposal's copy from the new leader,
// executes it.
func TestNewLeaderFetchesWhatItReleased(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 1
	h := newStepCluster(t, transport.KindTCP, cfg)
	events := fetchingLeader(h, true)
	checkFetchingLeader(h, events, 0, 2)
	if at := slices.Index(events, "FETCH 3→1"); at < slices.Index(events, "NEW-VIEW →3") {
		h.errorf("replica 3 did not fetch the re-proposal's copy from the new leader: %v", events)
	}
	if row := h.Replicas[1].requests[RequestID{100, 1}]; row.state != done || row.held == 0 {
		h.errorf("the new leader's row: state %d, copy held %v; want done, its copy taken back", row.state, row.held != 0)
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
		if row := backup.requests[req.ID()]; !bytes.Equal(backup.copyOf(row).op, req.Op) || backup.copyOf(row).digest != refOf(req).Digest {
			t.Errorf("%s: the backup's copy was replaced", name)
		}
		if s := backup.lookup(1); s == nil || s.proposed || s.sentPrep || *backup.sendFaults != 0 {
			t.Errorf("%s: the backup kept the re-proposal or sent %d messages; want it dropped, nothing sent", name, *backup.sendFaults)
		}
	}
}

// TestRejoinedReplicaKeepsWhatItsViewChangeNames: a backup prepares a
// batch while no COMMIT reaches it, its timer demands view 1 with a proof of
// the batch, and then it rejoins view 0 — as adoptCheckpoint does when a
// state transfer catches it up — and executes the batch there. Its VIEW-CHANGE is still on file with the others, so
// view 1's leader may fetch the batch's request from it: the backup keeps
// its copy instead of releasing it, as it does once no demand is pending.
func TestRejoinedReplicaKeepsWhatItsViewChangeNames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 1
	for _, pending := range []bool{true, false} {
		h := newStepCluster(t, transport.KindTCP, cfg)
		r := h.Replicas[3]
		commitTo3 := func(e envelope) bool { return e.typ() == MsgCommit && e.to == 3 }
		h.submit(1, 0, 1, 2, 3)
		h.drain(func(e envelope) bool { return !commitTo3(e) })
		if pending {
			h.fire(3)
			h.outside("settleView")
			r.settleView()
		}
		h.drain(commitTo3)
		row := r.requests[putRequest(1).ID()]
		if r.executed != 1 || row.state != done {
			h.fatalf("demand pending %v: executed %d, row state %d; want the batch executed", pending, r.executed, row.state)
		}
		if kept := r.copyOf(row).digest == refOf(putRequest(1)).Digest; kept != pending {
			h.errorf("demand pending %v: copy kept %v, want %v", pending, kept, pending)
		}
	}
}
