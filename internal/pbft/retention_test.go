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

// scribble overwrites a delivered buffer once its handler has returned, as
// a transport that reuses its receive memory does.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xEE
	}
}

// A filed request row keeps its own copy of the op: after the message it
// came in is overwritten, the row still holds the op — a small one, copied
// into the replica's slab, and one above a quarter slab chunk, copied alone.
func TestFiledRequestKeepsItsOp(t *testing.T) {
	r := bareReplica(t, 3, DefaultConfig())
	for i, size := range []int{128, 32 << 10} {
		op := kvstore.EncodeOp(kvstore.OpPut, "k", string(bytes.Repeat([]byte{'v'}, size)))
		req := Request{Client: 100, Timestamp: uint64(i + 1), Op: op}
		raw := Encode(req)
		var m decoded
		if err := m.decode(raw); err != nil {
			t.Fatal(err)
		}
		r.handleRequest(m.request, nil)
		scribble(raw)
		if row, seen := r.requests[req.ID()]; !seen || !bytes.Equal(row.Op, op) {
			t.Fatalf("%d B value: the filed row's op changed with the message it came in", size)
		}
	}
}

// A state transfer in progress keeps its own copies of the manifest header
// and of every verified part: the messages that carried them are
// overwritten as they are handled, and the transfer still adopts the
// source's state.
func TestStateTransferKeepsHeaderAndParts(t *testing.T) {
	x := newFetchFixture()
	offerManifest := func(sender uint32) {
		raw := Encode(x.manifest(sender, 5))
		var m decoded
		if err := m.decode(raw); err != nil {
			t.Fatal(err)
		}
		if !x.fetch.offerManifest(x.dst, 0, sender, m.manifest) {
			t.Fatalf("manifest from %d refused", sender)
		}
		scribble(raw)
	}
	offerManifest(1)
	if !bytes.Equal(x.fetch.xfers[1].manifest.Header, x.src.MarshalHeader()) {
		t.Fatal("the stored manifest header changed with the message it came in")
	}
	for _, i := range x.divergent() {
		raw := Encode(StatePart{Seq: fixtureSeq, Part: uint32(i), Data: x.src.MarshalPartition(i), Replica: 1})
		var m decoded
		if err := m.decode(raw); err != nil {
			t.Fatal(err)
		}
		if _, stored := x.fetch.offerPart(1, m.part); !stored {
			t.Fatalf("part %d refused", i)
		}
		scribble(raw)
		if !bytes.Equal(x.fetch.xfers[1].parts[i], x.src.MarshalPartition(i)) {
			t.Fatalf("stored part %d changed with the message it came in", i)
		}
	}
	offerManifest(2)
	if _, ok := x.tryAdopt(5); !ok || x.dst.Snapshot() != x.src.Snapshot() {
		t.Fatal("the transfer did not adopt the source's state")
	}
}

// A client's vote outlives the reply that cast it: the first replica's
// result is overwritten once its reply is handled, and the second replica's
// matching result still completes the F+1 quorum — on the ordered path and,
// at 2F+1, on the read fast path.
func TestClientVoteOutlivesItsReply(t *testing.T) {
	cl, _ := newReadTestClient(1, 4)
	var results []string
	done := func(res []byte) { results = append(results, string(res)) }
	cl.Invoke([]byte("op"), done)
	lent := []byte("result")
	cl.handleReply(Reply{Timestamp: cl.next, Client: cl.id, Replica: 0, Result: lent})
	scribble(lent)
	cl.handleReply(Reply{Timestamp: cl.next, Client: cl.id, Replica: 1, Result: []byte("result")})

	cl.InvokeRead([]byte("read"), done)
	for r := uint32(0); r < 3; r++ {
		lent := []byte("value")
		cl.handleReadReply(ReadReply{Timestamp: cl.next, Client: cl.id, Replica: r, Executed: 1, Result: lent})
		scribble(lent)
	}
	if len(results) != 2 || results[0] != "result" || results[1] != "value" {
		t.Fatalf("completed with %q, want [result value]: a vote changed with the reply that cast it", results)
	}
}

// keep gives an op above a quarter slab chunk a backing of its own, one no
// other filed op shares: what lets its row release the backing for the next
// large op. The ops filed before and after it go into the slab, not into
// its backing.
func TestKeepGivesALargeOpItsOwnAllocation(t *testing.T) {
	r := bareReplica(t, 3, DefaultConfig())
	before := r.keep([]byte("small op"))
	large := r.keep(bytes.Repeat([]byte{'v'}, opChunk/4+1))
	after := r.keep([]byte("small op"))
	if slab := r.ops[:cap(r.ops)]; within(&large[0], slab) {
		t.Fatal("a 4,097 B op was copied into the slab chunk the small ops share")
	}
	if own := large[:cap(large)]; within(&before[0], own) || within(&after[0], own) {
		t.Fatal("a small op shares the backing of a 4,097 B op")
	}
}

// within reports whether p points into b's bytes.
func within(p *byte, b []byte) bool {
	for i := range b {
		if &b[i] == p {
			return true
		}
	}
	return false
}

// runInOrder invokes ops on cl one after another, each once the last is
// done, and runs the loop until it is idle.
func runInOrder(c *Cluster, cl *Client, ops [][]byte) {
	var next func(i int)
	next = func(i int) {
		if i < len(ops) {
			cl.Invoke(ops[i], func([]byte) { next(i + 1) })
		}
	}
	c.Loop.Post(func() { next(0) })
	c.Loop.Run()
}

// largePuts returns n puts of 32 KiB values, each to a key and of a byte of
// its own.
func largePuts(n int) [][]byte {
	ops := make([][]byte, n)
	for i := range ops {
		ops[i] = kvstore.EncodeOp(kvstore.OpPut, fmt.Sprint("k", i), strings.Repeat(string(rune('a'+i%26)), 32<<10))
	}
	return ops
}

// fetchAnswer returns what r sends replica 1 in answer to a FETCH of seq.
func fetchAnswer(t *testing.T, r *Replica, seq uint64) []Message {
	t.Helper()
	var answer []Message
	r.SetOutbox(func(_ *msgnet.Peer, env []byte) ([]byte, sim.Time) {
		e, err := DecodeEnvelope(bytes.Clone(env))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Decode(e.Payload)
		if err != nil {
			t.Fatal(err)
		}
		answer = append(answer, m)
		return nil, 0
	})
	defer r.SetOutbox(nil)
	r.handleFetch(1, Fetch{Seq: seq, Replica: 1})
	return answer
}

// The proposal's sender keeps its copy of an executed large request until
// the stable point passes it, since it answers FETCHes for it: while the
// backups release theirs and file the later large requests into the freed
// backings, and the sender files them too, a FETCH of the first sequence is
// answered with the request's bytes. Once the stable point passes it, its
// row is gone and its backing is on the sender's free list.
func TestSenderKeepsItsExecutedCopyUntilTheStablePoint(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery, cfg.LogWindow = 4, 8
	c := newTestCluster(t, transport.KindTCP, cfg)
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	leader, ops := c.Replicas[0], largePuts(3*int(cfg.CheckpointEvery))
	runInOrder(c, cl, ops[:3])
	if leader.Executed() != 3 || len(c.Replicas[1].free) == 0 {
		t.Fatalf("executed %d, backup free list %d: want 3 sequences, one large request each, and a backup that released", leader.Executed(), len(c.Replicas[1].free))
	}
	answer := fetchAnswer(t, leader, 1)
	if len(answer) != 1 {
		t.Fatalf("the sender answered a FETCH of sequence 1 with %d messages, want its one request", len(answer))
	}
	if req, ok := answer[0].(Request); !ok || !bytes.Equal(req.Op, ops[0]) {
		t.Fatal("the sender's copy of the first request changed once later requests were filed")
	}
	first := RequestID{Client: cl.ID(), Timestamp: 1}
	backing := &leader.requests[first].Op[0]
	runInOrder(c, cl, ops[3:])
	if leader.Stable() < 4 {
		t.Fatalf("stable point %d, want at least 4", leader.Stable())
	}
	if _, held := leader.requests[first]; held {
		t.Fatal("the first request's row outlived the stable point")
	}
	if _, ok := fetchAnswer(t, leader, 1)[0].(Checkpoint); !ok {
		t.Fatal("a FETCH below the stable point was not answered with the checkpoint")
	}
	if !slices.ContainsFunc(leader.free, func(b []byte) bool { return &b[0] == backing }) && !heldBacking(leader, backing) {
		t.Fatal("the first request's backing was not released onto the free list")
	}
}

// heldBacking reports whether one of r's rows holds an op in backing.
func heldBacking(r *Replica, backing *byte) bool {
	for _, row := range r.requests {
		if len(row.Op) > 0 && &row.Op[0] == backing {
			return true
		}
	}
	return false
}

// No two rows hold their ops in one backing, and no row holds one the free
// list offers: three clients put 32 KiB values concurrently through a
// window of two checkpoints, and after every executed batch each replica's
// rows still hold the bytes their digests name, each in a backing of its
// own.
func TestNoTwoHeldRowsShareABacking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery, cfg.LogWindow = 4, 8
	c := newTestCluster(t, transport.KindTCP, cfg)
	checked := 0
	for i, r := range c.Replicas {
		r.OnExecute(func(seq uint64, _ []Request) {
			owner := map[*byte]string{}
			for _, b := range r.free {
				owner[&b[0]] = "the free list"
			}
			for id, row := range r.requests {
				if len(row.Op) <= opChunk/4 {
					continue
				}
				if other, shared := owner[&row.Op[0]]; shared {
					t.Fatalf("replica %d at sequence %d: request %v holds its op in a backing %s holds too", i, seq, id, other)
				}
				owner[&row.Op[0]] = fmt.Sprint("request ", id)
				if row.digest != (auth.Digest{}) && auth.Hash(row.Op) != row.digest {
					t.Fatalf("replica %d at sequence %d: request %v's op no longer matches its digest", i, seq, id)
				}
			}
			checked++
		})
	}
	ops := largePuts(30)
	for k := range 3 {
		cl, err := c.AddClient()
		if err != nil {
			t.Fatal(err)
		}
		var next func(j int)
		next = func(j int) {
			if j < len(ops) {
				cl.Invoke(ops[j], func([]byte) { next(j + 3) })
			}
		}
		c.Loop.Post(func() { next(k) })
	}
	c.Loop.Run()
	if c.Replicas[0].Executed() == 0 || c.Replicas[0].Stable() < 2*cfg.CheckpointEvery || checked == 0 {
		t.Fatalf("executed %d, stable %d: the run did not pass two checkpoints", c.Replicas[0].Executed(), c.Replicas[0].Stable())
	}
}

// A duplicate of an executed request is answered from the client's cached
// reply, whose result is the store's bytes: a later put to the read key
// replaces them and leaves the cached reply as it was.
func TestDuplicateReplyOutlivesAnOverwrite(t *testing.T) {
	c := newTestCluster(t, transport.KindTCP, DefaultConfig())
	reader, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	writer, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	get := kvstore.EncodeOp(kvstore.OpGet, "k", "")
	var getTS uint64
	c.Loop.Post(func() {
		reader.Invoke(kvstore.EncodeOp(kvstore.OpPut, "k", "old"), func([]byte) {
			reader.Invoke(get, func([]byte) {
				getTS = reader.next
				writer.Invoke(kvstore.EncodeOp(kvstore.OpPut, "k", "new"), func([]byte) {})
			})
		})
	})
	c.Loop.Run()
	r := c.Replicas[1]
	if v, _ := r.app.(*kvstore.Store).Get("k"); getTS == 0 || v != "new" {
		t.Fatalf("get at timestamp %d, store reads %q: want the get done and then the overwrite", getTS, v)
	}
	var resent []byte
	r.SetOutbox(func(_ *msgnet.Peer, env []byte) ([]byte, sim.Time) {
		resent = bytes.Clone(env)
		return env, 0
	})
	r.handleRequest(Request{Client: reader.ID(), Timestamp: getTS, Op: get}, nil)
	m, err := Decode(resent)
	if reply, ok := m.(Reply); err != nil || !ok || string(reply.Result) != "old" {
		t.Fatalf("the duplicate get was answered %+v (%v), want the cached result %q", m, err, "old")
	}
}

// A proposal keeps its refs in its cell until the cell's next lap. A backup
// decodes each PRE-PREPARE's refs into a scratch the next delivery
// overwrites, out of a buffer the transport reuses; what a parked slot, a
// VIEW-CHANGE proof and a slot re-proposed by a NEW-VIEW name stays as it
// was while those are overwritten and every other cell of the ring takes a
// proposal.
func TestProposalKeepsItsRefsUntilItsCellsNextLap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LogWindow = cfg.CheckpointEvery
	r := bareReplica(t, 2, cfg) // a backup in views 0 and 1
	ts := uint64(0)
	requests := func(held bool) []Request {
		reqs := make([]Request, cfg.BatchSize)
		for i := range reqs {
			ts++
			reqs[i] = timerRequest(ts)
			if held {
				r.handleRequest(reqs[i], nil)
			}
		}
		return reqs
	}
	deliver := func(from uint32, m Message) {
		raw := sealedBy(r, from, m)
		r.handleEnvelope(raw)
		scribble(raw)
	}
	// Fill every cell but the ones under test with a proposal from view's
	// leader: each overwrites the scratch, and none is held, so each parks.
	fill := func(view uint64, skip ...uint64) {
		for seq := uint64(1); seq <= cfg.LogWindow; seq++ {
			if !slices.Contains(skip, seq) {
				reqs := requests(false)
				deliver(r.Leader(view), PrePrepare{View: view, Seq: seq, Digest: BatchDigest(reqs), Refs: refsOf(reqs)})
			}
		}
	}
	check := func(what string, got []RequestRef, reqs []Request) {
		t.Helper()
		if !slices.Equal(got, refsOf(reqs)) {
			t.Fatalf("%s changed with the deliveries after it", what)
		}
	}

	parked, prepared := requests(false), requests(true)
	deliver(0, PrePrepare{Seq: 1, Digest: BatchDigest(parked), Refs: refsOf(parked)})
	deliver(0, PrePrepare{Seq: 2, Digest: BatchDigest(prepared), Refs: refsOf(prepared)})
	deliver(1, Prepare{Seq: 2, Digest: BatchDigest(prepared), Replica: 1})
	fill(0, 1, 2)
	if s := r.lookup(1); s == nil || !s.parked {
		t.Fatal("the proposal naming requests the backup lacks did not park")
	}
	check("a parked slot's refs", r.lookup(1).pp.Refs, parked)
	if s := r.lookup(2); s == nil || !r.prepared(s) {
		t.Fatal("the proposal of held requests did not prepare")
	}
	check("a prepared slot's refs", r.lookup(2).pp.Refs, prepared)

	r.startViewChange(1)
	fill(0) // decoded into the scratch, then dropped: a view change is under way
	vc := r.vcVotes[1][r.id]
	if vc == nil || len(vc.Prepared) != 1 {
		t.Fatal("the backup's VIEW-CHANGE does not carry its one prepared proof")
	}
	check("a VIEW-CHANGE proof's refs", vc.Prepared[0].Refs, prepared)

	empty := BatchDigest(nil)
	deliver(1, NewView{View: 1, PrePrepares: []PrePrepare{
		{View: 1, Seq: 1, Digest: empty},
		{View: 1, Seq: 2, Digest: BatchDigest(prepared), Refs: refsOf(prepared)},
	}})
	if r.View() != 1 || r.lookup(2) == nil || !r.lookup(2).proposed {
		t.Fatal("the backup did not adopt the NEW-VIEW's re-proposal")
	}
	fill(1, 1, 2)
	check("a re-proposed slot's refs", r.lookup(2).pp.Refs, prepared)
}
