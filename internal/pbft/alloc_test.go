package pbft

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/kvstore"
	"rubin/internal/msgnet"
	"rubin/internal/raceflag"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// The gates on pbft's message path: a message costs the heap what its
// handler keeps, and the path itself nothing — no boxed message, no encode
// buffer, no MAC vector, no closure on an un-faulted send. Like the
// per-layer gates below msgnet they skip under -race, whose runtime
// allocates on its own.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the path's")
	}
}

// sealedBy returns the envelope replica id of r's group would send for m,
// in a buffer of its own.
func sealedBy(r *Replica, id uint32, m Message) []byte {
	env, _, _ := (&Replica{id: id, keyring: auth.GenerateKeyrings(r.cfg.N, 1)[id]}).seal(m)
	return bytes.Clone(env)
}

// TestVoteDeliveryAllocatesNothing: an authenticated PREPARE, COMMIT or
// CHECKPOINT is opened, MAC-checked, decoded, bound to its sender and
// counted without one heap object — once its slot or its checkpoint's
// tally exists, which is state the replica keeps.
func TestVoteDeliveryAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	r := bareReplica(t, 0, DefaultConfig())
	d := auth.Hash([]byte("batch"))
	for _, m := range []Message{
		Prepare{View: 0, Seq: 3, Digest: d, Replica: 2},
		Commit{View: 0, Seq: 3, Digest: d, Replica: 2},
		Checkpoint{Seq: r.cfg.CheckpointEvery, Digest: d, Replica: 2},
	} {
		raw := sealedBy(r, 2, m)
		if allocs := testing.AllocsPerRun(50, func() { r.handleEnvelope(raw) }); allocs != 0 {
			t.Errorf("delivering a %T allocates %v times, want 0", m, allocs)
		}
	}
	s := r.lookup(3)
	if s == nil || s.prepares.count(d) != 1 || s.commits.count(d) != 1 || r.cps.votes[r.cfg.CheckpointEvery].count(d) != 1 {
		t.Fatal("the delivered votes were not counted: the gate measured a drop")
	}
	// The same votes under a spoofed identity are dropped, as cheaply.
	forged := sealedBy(r, 2, Prepare{View: 0, Seq: 4, Digest: d, Replica: 1})
	if allocs := testing.AllocsPerRun(50, func() { r.handleEnvelope(forged) }); allocs != 0 || r.lookup(4) != nil {
		t.Errorf("a vote claiming another replica's identity: %v allocations, slot %v; want 0 and none", allocs, r.lookup(4))
	}
}

// TestProposalAllocatesWhatItKeeps: once the log has wrapped, a proposal
// costs the heap nothing at either end — its cell holds it by value, with
// its refs in the backing they went into on the cell's last lap. A backup
// that holds the client's copy of every request a PRE-PREPARE names opens,
// checks and decodes it (its refs into the replica's lent scratch), copies
// the refs into the cell, moves each request's row and PREPAREs; a leader
// builds a proposal of eight queued requests in its cell and sends it
// through its one bound callback, with no closure and no slice of refs. The
// first lap pays for the cells, their tallies and the refs' backings, and
// each request's row is what a replica keeps of it: both are made before
// the measurement.
func TestProposalAllocatesWhatItKeeps(t *testing.T) {
	skipUnderRace(t)
	cfg := DefaultConfig()
	cfg.LogWindow = cfg.CheckpointEvery
	const runs = 51 // AllocsPerRun's warm-up and 50 measured
	backup, leader := bareReplica(t, 1, cfg), bareReplica(t, 0, cfg)
	var queued []admitted // the leader's batches, one BatchSize run each
	ts := uint64(0)
	batch := func(seq uint64) []byte {
		reqs := make([]Request, cfg.BatchSize)
		for i := range reqs {
			ts++
			reqs[i] = timerRequest(ts)
			backup.handleRequest(reqs[i], nil)
			queued = append(queued, admitted{RequestRef: refOf(reqs[i])})
		}
		return sealedBy(backup, 0, PrePrepare{Seq: seq, Digest: BatchDigest(reqs), Refs: refsOf(reqs)})
	}
	propose := func() {
		for _, q := range queued[:cfg.BatchSize] {
			leader.pending.Push(q)
		}
		queued = queued[cfg.BatchSize:]
		leader.proposeBatch()
		for len(leader.unsent) > 0 && leader.node.Loop().Step() {
		}
	}
	for seq := uint64(1); seq <= cfg.LogWindow; seq++ { // the first lap
		backup.handleEnvelope(batch(seq))
		propose()
	}
	for _, r := range []*Replica{backup, leader} {
		r.executed = cfg.LogWindow
		r.advanceStable(cfg.LogWindow)
	}
	var raws [][]byte
	for seq := cfg.LogWindow + 1; seq <= cfg.LogWindow+runs; seq++ {
		raws = append(raws, batch(seq))
	}
	next := 0
	if allocs := testing.AllocsPerRun(runs-1, func() { backup.handleEnvelope(raws[next]); next++ }); allocs != 0 {
		t.Errorf("accepting a pre-prepare of %d held requests allocates %v times, want 0", cfg.BatchSize, allocs)
	}
	if s := backup.lookup(cfg.LogWindow + runs); s == nil || !s.sentPrep || len(backup.parked) != 0 {
		t.Fatal("the backup did not PREPARE the last proposal: the gate measured a drop")
	}
	if allocs := testing.AllocsPerRun(runs-1, propose); allocs != 0 {
		t.Errorf("proposing and sending %d queued requests allocates %v times, want 0", cfg.BatchSize, allocs)
	}
	s := leader.lookup(cfg.LogWindow + runs)
	if s == nil || !s.proposed || len(s.pp.Refs) != cfg.BatchSize || *leader.sendFaults != uint64(cfg.N-1)*(cfg.LogWindow+runs) {
		t.Fatal("the leader did not propose and send every batch: the gate measured nothing")
	}
}

// TestForgedEnvelopeCountAllocatesNothing: the entry count of a MAC vector
// is input no MAC has vouched for. The largest one the bound admits — 2^16
// empty entries, a 256 KiB envelope — used to size 1.5 MiB of slice headers
// per delivery before any check; walked in place it sizes nothing.
func TestForgedEnvelopeCountAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	r := bareReplica(t, 0, DefaultConfig())
	payload := Encode(Prepare{View: 0, Seq: 3, Replica: 2})
	const entries = 1 << 16
	raw := binary.BigEndian.AppendUint32(nil, 2)
	raw = binary.BigEndian.AppendUint32(raw, uint32(len(payload)))
	raw = append(raw, payload...)
	raw = binary.BigEndian.AppendUint32(raw, entries)
	raw = append(raw, make([]byte, 4*entries)...)
	walked := 0
	if _, _, err := openEnvelope(raw, func(int, []byte) { walked++ }); err != nil || walked != entries {
		t.Fatalf("the forged envelope is not well-formed: %v after %d entries", err, walked)
	}
	if allocs := testing.AllocsPerRun(10, func() { r.handleEnvelope(raw) }); allocs != 0 {
		t.Errorf("an envelope claiming %d MACs allocates %v times, want 0", entries, allocs)
	}
	if r.lookup(3) != nil {
		t.Error("a vote with an empty MAC was counted")
	}
	// One entry more than the input could hold is rejected at the count,
	// and a truncated vector where it ends: neither allocates an error.
	binary.BigEndian.PutUint32(raw[8+len(payload):], entries+1)
	for _, bad := range [][]byte{raw, raw[:len(raw)/2]} {
		if allocs := testing.AllocsPerRun(10, func() { r.handleEnvelope(bad) }); allocs != 0 {
			t.Errorf("a malformed %d-byte envelope allocates %v times, want 0", len(bad), allocs)
		}
	}
}

// replyFixture is a started group with one client that has one invocation
// outstanding under timestamp ts and a connection to every replica — each
// replica knows the client's connection from a first, completed request.
func replyFixture(t *testing.T, kind transport.Kind) (c *Cluster, cl *Client, ts uint64) {
	t.Helper()
	c = newTestCluster(t, kind, DefaultConfig())
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	c.Loop.Post(func() { cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, "k", "v"), nil) })
	c.Loop.Run()
	if cl.Outstanding() != 0 {
		t.Fatal("the first request did not complete")
	}
	ts = cl.next + 1
	cl.pending[ts] = &invocation{replies: make([]replyVote, len(cl.conns))}
	return c, cl, ts
}

// TestReplyAllocatesNothing: what a reply costs the host end to end is what
// msgnet and the transport below charge for carrying its bytes — nothing
// once the receive memory is warm, pinned by their own gates and measured
// here by handing the same bytes to Peer.Send directly. On top of that the
// replica encoding and sending it (into its scratch and msgnet's pooled
// frame, no closure) and the client decoding and counting it short of a
// quorum (by value, the vote keeping the result's digest) allocate nothing.
// The two sides are measured apart: first with the client's handler
// unplugged, then with it.
func TestReplyAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	for _, kind := range kinds() {
		c, cl, ts := replyFixture(t, kind)
		rep := c.Replicas[3]
		reply := Reply{Timestamp: ts, Client: cl.ID(), Replica: 3, Result: []byte("result")}
		read := ReadReply{Timestamp: ts, Client: cl.ID(), Replica: 3, Executed: 1, Result: []byte("result")}
		cl.reads[ts] = &readInvocation{replies: make([]replyVote, len(cl.conns))}
		receive, arrived := cl.conns[3], 0
		receive.OnMessage(func(msgnet.Class, []byte) { arrived++ })
		out, rawReply, rawRead := rep.clients[cl.ID()].conn, Encode(reply), Encode(read)
		carry := func() {
			_ = out.Send(msgnet.ClassControl, rawReply)
			_ = out.Send(msgnet.ClassControl, rawRead)
			c.Loop.Run()
		}
		testing.AllocsPerRun(149, carry) // every receive slot of the channel backed
		carried := testing.AllocsPerRun(50, carry)
		roundTrip := func() {
			rep.sendToClient(rep.clients[cl.ID()].conn, reply)
			rep.sendToClient(rep.clients[cl.ID()].conn, read)
			c.Loop.Run()
		}
		if allocs := testing.AllocsPerRun(50, roundTrip); allocs != carried {
			t.Errorf("%s: sending two replies allocates %v times, carrying their bytes %v", kind, allocs, carried)
		}
		if arrived != 2*(150+51+51) {
			t.Fatalf("%s: %d replies arrived, want %d", kind, arrived, 2*(150+51+51))
		}
		cl.AttachReplica(3, receive)
		if allocs := testing.AllocsPerRun(50, roundTrip); allocs != carried {
			t.Errorf("%s: sending and receiving two replies allocates %v times, carrying their bytes %v", kind, allocs, carried)
		}
		if v := cl.pending[ts].replies[3]; !v.cast || v.result != auth.Hash([]byte("result")) || !cl.reads[ts].replies[3].cast {
			t.Fatalf("%s: the client did not count the replies: the gate measured a drop", kind)
		}
		if *rep.sendFaults != 0 {
			t.Fatalf("%s: %d send faults", kind, *rep.sendFaults)
		}
	}
}

// TestInvokeAllocatesOnlyTheRequestKey: an invocation's record and its vote
// cells come back from the client's free list, so submitting an operation
// costs the heap the key it is traced under and nothing else — and a fast
// read's fallback timer, whose callback is bound once per record, nothing
// more. Each measured cycle runs to its quorum, which recycles the record.
func TestInvokeAllocatesOnlyTheRequestKey(t *testing.T) {
	skipUnderRace(t)
	cl, _ := newReadTestClient(1, 4) // unattached connections: each send fails, allocating nothing
	op, result := kvstore.EncodeOp(kvstore.OpGet, "k", ""), []byte("v")
	completed := 0
	done := func([]byte) { completed++ }
	ordered := func() {
		cl.Invoke(op, done)
		for r := uint32(0); r < 2; r++ { // F+1
			cl.handleReply(Reply{Timestamp: cl.next, Client: cl.id, Replica: r, Result: result})
		}
	}
	fast := func() {
		cl.InvokeRead(op, done)
		for r := uint32(0); r < 3; r++ { // 2F+1
			cl.handleReadReply(ReadReply{Timestamp: cl.next, Client: cl.id, Replica: r, Result: result})
		}
	}
	for name, cycle := range map[string]func(){"Invoke": ordered, "InvokeRead": fast} {
		before := completed
		if allocs := testing.AllocsPerRun(50, cycle); allocs != 1 {
			t.Errorf("%s allocates %v times per operation, want 1: the request key", name, allocs)
		}
		if completed-before != 51 || cl.Outstanding() != 0 {
			t.Fatalf("%s: %d of 51 operations completed, %d outstanding: the gate measured no quorum", name, completed-before, cl.Outstanding())
		}
	}
	if *cl.fastReads != 51 || *cl.fastFallbacks != 0 {
		t.Fatalf("%d fast reads, %d fallbacks; want 51 and 0", *cl.fastReads, *cl.fastFallbacks)
	}
}

// TestKeepAfterAReleaseAllocatesNothing: a row that releases a large op
// gives its backing to the next large op keep copies, so once one row has
// released, filing a 32 KiB request costs the heap nothing.
func TestKeepAfterAReleaseAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	r := bareReplica(t, 3, DefaultConfig())
	op := bytes.Repeat([]byte{'v'}, 32<<10)
	r.release(r.keep(op))
	if allocs := testing.AllocsPerRun(50, func() { r.release(r.keep(op)) }); allocs != 0 {
		t.Errorf("keeping a 32 KiB op after a release allocates %v times, want 0", allocs)
	}
}

// TestBoxedDecodeAllocatesOnce: Decode is the by-value decoder plus one
// boxing — for a message without a list, exactly one allocation.
func TestBoxedDecodeAllocatesOnce(t *testing.T) {
	skipUnderRace(t)
	d := auth.Hash([]byte("digest"))
	for _, m := range []Message{
		Request{Client: 1, Timestamp: 2, Op: []byte("op")}, ReadRequest{Client: 1, Timestamp: 2, Op: []byte("op")},
		Prepare{View: 1, Seq: 2, Digest: d, Replica: 3}, Commit{View: 1, Seq: 2, Digest: d, Replica: 3},
		Reply{View: 1, Timestamp: 2, Client: 3, Result: []byte("r")}, ReadReply{Timestamp: 2, Client: 1, Result: []byte("r")},
		Checkpoint{Seq: 64, Digest: d, Replica: 2}, StatePart{Seq: 64, Part: 3, Data: []byte("part"), Replica: 1},
		Fetch{Seq: 64, Replica: 2},
	} {
		raw := Encode(m)
		if allocs := testing.AllocsPerRun(50, func() { _, _ = Decode(raw) }); allocs != 1 {
			t.Errorf("Decode of a %T allocates %v times, want 1", m, allocs)
		}
		var v decoded
		if allocs := testing.AllocsPerRun(50, func() { _ = v.decode(raw) }); allocs != 0 {
			t.Errorf("decoding a %T by value allocates %v times, want 0", m, allocs)
		}
	}
}

// TestDelayedSendOwnsItsBytes: every send goes out of the sender's scratch,
// which the next message overwrites — sound only because Peer.Send copies
// before it returns. A send a delaying Outbox defers fires long
// after that, so it must take its own copy first: with every replica
// delaying, two clients' requests ordered in one batch are answered back to
// back out of one scratch, and each client must still get its own reply
// (and every PREPARE and COMMIT in between its own MACs).
func TestDelayedSendOwnsItsBytes(t *testing.T) {
	for _, kind := range kinds() {
		c := newTestCluster(t, kind, DefaultConfig())
		var clients [2]*Client
		for i := range clients {
			cl, err := c.AddClient()
			if err != nil {
				t.Fatal(err)
			}
			clients[i] = cl
		}
		for _, rep := range c.Replicas {
			rep.SetOutbox(delayed(50 * sim.Microsecond))
		}
		var batches [][]Request
		c.Replicas[0].OnExecute(func(_ uint64, batch []Request) { batches = append(batches, batch) })
		for round, code := range []kvstore.OpCode{kvstore.OpPut, kvstore.OpGet} {
			var results [2]string
			c.Loop.Post(func() {
				for i, cl := range clients {
					i := i
					cl.Invoke(kvstore.EncodeOp(code, "key"+strconv.Itoa(i), "value"+strconv.Itoa(i)), func(res []byte) { results[i] = string(res) })
				}
			})
			c.Loop.Run()
			want := [2]string{"OK", "OK"}
			if code == kvstore.OpGet {
				want = [2]string{"value0", "value1"}
			}
			if results != want || clients[0].Outstanding()+clients[1].Outstanding() != 0 {
				t.Fatalf("%s round %d: results %q, want %q", kind, round, results, want)
			}
		}
		if len(batches) != 2 || len(batches[0]) != 2 || len(batches[1]) != 2 {
			t.Fatalf("%s: the requests were not ordered two to a batch (%d batches): the replies were not back to back", kind, len(batches))
		}
	}
}

// TestRequestKeyFormat pins the text of a request key — obs trace ids and
// workload histories are keyed by it — and its cost: the string, nothing else.
func TestRequestKeyFormat(t *testing.T) {
	for _, tc := range []struct {
		client uint32
		ts     uint64
		want   string
	}{{0, 0, "0/0"}, {7, 42, "7/42"}, {100, 1, "100/1"}, {1<<32 - 1, 1<<64 - 1, "4294967295/18446744073709551615"}} {
		req := Request{Client: tc.client, Timestamp: tc.ts}
		if got := req.Key(); got != tc.want {
			t.Errorf("Request.Key() = %q, want %q", got, tc.want)
		}
		if got := ReadRequest(req).Key(); got != tc.want {
			t.Errorf("ReadRequest.Key() = %q, want %q", got, tc.want)
		}
		if allocs := testing.AllocsPerRun(50, func() { _ = req.Key() }); !raceflag.Enabled && allocs != 1 {
			t.Errorf("Request.Key() allocates %v times, want 1", allocs)
		}
	}
}
