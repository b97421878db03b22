package msgnet

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/raceflag"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

func kinds() []transport.Kind { return []transport.Kind{transport.KindTCP, transport.KindRDMA} }

// pair is two meshed nodes: a dialed b.
type pair struct {
	loop *sim.Loop
	na   *fabric.Node
	nb   *fabric.Node
	ma   *Mesh
	mb   *Mesh
	ab   *Peer // a's outbound handle to b
	ba   *Peer // b's accepted handle from a
}

func newPair(t *testing.T, kind transport.Kind, opts Options) *pair {
	t.Helper()
	return newPairWith(t, kind, opts, model.Default())
}

func newPairWith(t *testing.T, kind transport.Kind, opts Options, params model.Params) *pair {
	t.Helper()
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, params)
	p := &pair{loop: loop, na: nw.AddNode("a"), nb: nw.AddNode("b")}
	nw.Connect(p.na, p.nb)
	var err error
	if p.ma, err = NewMesh(kind, p.na, opts); err != nil {
		t.Fatalf("mesh a: %v", err)
	}
	if p.mb, err = NewMesh(kind, p.nb, opts); err != nil {
		t.Fatalf("mesh b: %v", err)
	}
	if err := p.mb.Listen(9, func(in *Peer) { p.ba = in }); err != nil {
		t.Fatalf("listen: %v", err)
	}
	var dialErr error
	loop.Post(func() {
		p.ma.Dial(p.nb, 9, func(peer *Peer, err error) { p.ab, dialErr = peer, err })
	})
	loop.Run()
	if dialErr != nil {
		t.Fatalf("dial: %v", dialErr)
	}
	if p.ab == nil || p.ba == nil {
		t.Fatal("pair not wired")
	}
	return p
}

// pattern returns n deterministic, position-dependent bytes so chunk
// reordering or truncation cannot go unnoticed.
func pattern(n int, seed byte) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(i)*7 + seed
	}
	return out
}

// TestFragmentationRoundTrip drives the chunking edge cases on both
// backends: empty, tiny, the exact whole-frame boundary, one past it,
// exactly MaxMessage, several chunk-boundary straddles, and a snapshot-
// sized megabyte message.
func TestFragmentationRoundTrip(t *testing.T) {
	opts := DefaultOptions()
	maxMsg := opts.Transport.MaxMessage
	chunk := opts.chunkPayload()
	cases := []struct {
		name string
		size int
	}{
		{"empty", 0},
		{"tiny", 100},
		{"whole-boundary", opts.maxWhole()},
		{"first-chunked", opts.maxWhole() + 1},
		{"exactly-maxmessage", maxMsg},
		{"one-chunk-exact", chunk},
		{"two-chunks-exact", 2 * chunk},
		{"two-chunks-straddle", 2*chunk + 17},
		{"megabyte", 1 << 20},
	}
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			p := newPair(t, kind, opts)
			type got struct {
				class Class
				msg   []byte
			}
			var recv []got
			p.ba.OnMessage(func(c Class, m []byte) {
				cp := make([]byte, len(m))
				copy(cp, m)
				recv = append(recv, got{c, cp})
			})
			for i, tc := range cases {
				cls := Class(i % numClasses)
				if err := p.ab.Send(cls, pattern(tc.size, byte(i))); err != nil {
					t.Fatalf("%s: send: %v", tc.name, err)
				}
			}
			p.loop.Run()
			if len(recv) != len(cases) {
				t.Fatalf("delivered %d of %d messages", len(recv), len(cases))
			}
			// Same-class order is preserved; cross-class order may
			// interleave, so match per class.
			byClass := map[Class][]got{}
			for _, g := range recv {
				byClass[g.class] = append(byClass[g.class], g)
			}
			idx := map[Class]int{}
			for i, tc := range cases {
				cls := Class(i % numClasses)
				g := byClass[cls][idx[cls]]
				idx[cls]++
				if !bytes.Equal(g.msg, pattern(tc.size, byte(i))) {
					t.Errorf("%s: payload mismatch (%d bytes delivered)", tc.name, len(g.msg))
				}
			}
			if *p.ba.mesh.recvErrs != 0 || *p.ab.mesh.sendErrs != 0 {
				t.Errorf("recvErrs=%d sendErrs=%d, want 0/0", *p.ba.mesh.recvErrs, *p.ab.mesh.sendErrs)
			}
		})
	}
}

// TestDeliveredBytesBelongToReceiver is the lending rule pbft's
// decode-by-reference rests on: a delivered message belongs to the receiver
// until its callback returns. A consumer that copies every message in its
// callback, whole, bundled or reassembled, finds each copy intact after the
// receive ring below has come round many times over, while the lent slices
// of whole and bundled messages it kept as well no longer hold their bytes:
// the transport took that memory back — on both backends, and with the
// rubin channel's receive copy charged and projected away
// (Selector.CopyPerKB = 0), which lends the backing of each landed message
// either way.
func TestDeliveredBytesBelongToReceiver(t *testing.T) {
	opts := DefaultOptions()
	opts.Transport.WRs = 4
	opts.Transport.MaxMessage = 4 << 10
	// Equal sizes per shape, so a slot that kept its backing would be
	// overwritten in place rather than regrown.
	sizes := []int{1000, 3*opts.chunkPayload() - 5}
	for _, kind := range kinds() {
		for _, zeroCopy := range []bool{false, true} {
			kind, zeroCopy := kind, zeroCopy
			t.Run(fmt.Sprintf("%s/zerocopy=%v", kind, zeroCopy), func(t *testing.T) {
				params := model.Default()
				if zeroCopy {
					params.Selector.CopyPerKB = 0
				}
				p := newPairWith(t, kind, opts, params)
				frames := transportKinds(p)
				var held, lent [][]byte
				p.ba.OnMessage(func(_ Class, m []byte) { held, lent = append(held, bytes.Clone(m)), append(lent, m) })
				// First four small messages queued in one turn: one bundle,
				// each member a sub-slice of its one delivered buffer.
				const bundled, small = 4, 900
				for i := 0; i < bundled; i++ {
					if err := p.ab.Send(ClassControl, pattern(small, byte(100+i))); err != nil {
						t.Fatalf("bundled send %d: %v", i, err)
					}
				}
				p.loop.Run()
				if len(*frames) != 1 || (*frames)[0] != frameBundle {
					t.Fatalf("%d small messages arrived as transport messages of kinds %v, want one bundle", bundled, *frames)
				}
				const messages = 64 // 16 × WRs whole frames, more chunk frames
				for i := 0; i < messages; i++ {
					if err := p.ab.Send(ClassControl, pattern(sizes[i%2], byte(i))); err != nil {
						t.Fatalf("send %d: %v", i, err)
					}
				}
				p.loop.Run()
				if len(held) != bundled+messages {
					t.Fatalf("delivered %d of %d messages", len(held), bundled+messages)
				}
				for i, m := range held[:bundled] {
					if !bytes.Equal(m, pattern(small, byte(100+i))) {
						t.Fatalf("bundled message %d arrived corrupted", i)
					}
					if bytes.Equal(lent[i], m) {
						t.Fatalf("bundled message %d still reads its bytes after its callback returned", i)
					}
				}
				for i, m := range held[bundled:] {
					if !bytes.Equal(m, pattern(sizes[i%2], byte(i))) {
						t.Fatalf("message %d arrived corrupted", i)
					}
					if sizes[i%2] <= opts.maxWhole() && bytes.Equal(lent[bundled+i], m) {
						t.Fatalf("whole message %d still reads its bytes after its callback returned", i)
					}
				}
			})
		}
	}
}

// TestReassemblyAllocatesOnce: a chunked message is joined into one buffer,
// made at its first chunk for every chunk the stream announces — no growth
// on the way — and handed up at exactly its size.
func TestReassemblyAllocatesOnce(t *testing.T) {
	opts := DefaultOptions()
	p := newPair(t, transport.KindRDMA, opts)
	var got []byte
	size := 0
	p.ba.OnMessage(func(_ Class, m []byte) { got, size = bytes.Clone(m), cap(m) })
	msg := pattern(3*opts.chunkPayload()+17, 5)
	if err := p.ab.Send(ClassBulk, msg); err != nil {
		t.Fatal(err)
	}
	p.loop.Run()
	if !bytes.Equal(got, msg) || size != len(msg) {
		t.Fatalf("reassembled %d bytes handed up with capacity %d, want %d exact", len(got), size, len(msg))
	}
}

// TestClassInterleaving sends a megabyte bulk message first, then a train
// of control messages: the class round-robin must get most of the control
// train onto the wire before the bulk stream completes, instead of
// head-of-line-blocking it behind every chunk.
func TestClassInterleaving(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			p := newPair(t, kind, DefaultOptions())
			var order []string
			p.ba.OnMessage(func(c Class, m []byte) {
				if c == ClassBulk {
					order = append(order, "bulk")
				} else {
					order = append(order, fmt.Sprintf("ctl%d", m[0]))
				}
			})
			const controls = 8
			p.loop.Post(func() {
				if err := p.ab.Send(ClassBulk, pattern(1<<20, 3)); err != nil {
					t.Errorf("bulk send: %v", err)
				}
				for i := 0; i < controls; i++ {
					if err := p.ab.Send(ClassControl, []byte{byte(i)}); err != nil {
						t.Errorf("control send: %v", err)
					}
				}
			})
			p.loop.Run()
			if len(order) != controls+1 {
				t.Fatalf("delivered %d messages, want %d", len(order), controls+1)
			}
			before := 0
			for _, name := range order {
				if name == "bulk" {
					break
				}
				before++
			}
			// The 1 MB bulk message is 5 chunks; strict round-robin lets
			// ~one control through per chunk even though the bulk was
			// queued first.
			if before < 3 {
				t.Errorf("only %d control messages beat the bulk transfer (order %v)", before, order)
			}
		})
	}
}

// TestCloseDropsLateChunksAndReportsQueued closes the receiving peer
// before the chunk stream lands: nothing may be delivered, the loop must
// drain, and the sender's queued-but-undelivered messages must surface
// through the send-error counter rather than vanish.
func TestCloseDropsLateChunksAndReportsQueued(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			p := newPair(t, kind, DefaultOptions())
			delivered := 0
			p.ba.OnMessage(func(Class, []byte) { delivered++ })
			var sendErr error
			p.ab.OnSendError(func(err error) { sendErr = err })
			p.loop.Post(func() {
				if err := p.ab.Send(ClassBulk, pattern(1<<20, 9)); err != nil {
					t.Errorf("send: %v", err)
				}
				p.ba.Close()
			})
			p.loop.Run()
			if delivered != 0 {
				t.Errorf("delivered %d messages through a closed peer", delivered)
			}
			if !p.ba.Closed() {
				t.Error("receiver not closed")
			}
			// Whether the sender observes the remote close depends on the
			// backend's teardown propagation; what may never happen is a
			// message stuck in the msgnet queue with no surfaced failure —
			// frames already handed to the substrate are the NIC's loss,
			// like any real network.
			if p.ab.QueueBytes() != 0 && *p.ab.mesh.sendErrs == 0 && !p.ab.Closed() {
				t.Errorf("queued bytes stranded with no surfaced failure (sendErr=%v)", sendErr)
			}
		})
	}
}

// TestDispatchAfterCloseIsInert is the white-box half of the late-chunk
// edge: frames reaching a peer whose handle is already closed are
// dropped without delivery, reassembly, or spurious error counts.
func TestDispatchAfterCloseIsInert(t *testing.T) {
	p := newPair(t, transport.KindTCP, DefaultOptions())
	delivered := 0
	p.ba.OnMessage(func(Class, []byte) { delivered++ })
	p.ba.connClosed()
	payload := pattern(100, 1)
	p.ba.dispatch(encodeWhole(ClassControl, payload))
	p.ba.dispatch(encodeChunk(ClassBulk, 1, 0, 2, auth.Hash(payload), auth.Digest{}, payload))
	if delivered != 0 || *p.ba.mesh.recvErrs != 0 {
		t.Errorf("closed peer delivered=%d recvErrs=%d, want 0/0", delivered, *p.ba.mesh.recvErrs)
	}
}

// TestCorruptChunkRejectedWithoutWedging feeds hand-built chunk frames
// through a raw transport connection: a corrupted payload digest and a
// broken prev-chain must each kill only their own stream — counted and
// reported — while later streams and whole frames still deliver.
func TestCorruptChunkRejectedWithoutWedging(t *testing.T) {
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	na, nb := nw.AddNode("a"), nw.AddNode("b")
	nw.Connect(na, nb)
	opts := DefaultOptions()
	// Raw transport stack on the sender so the test controls the exact
	// frames; a mesh on the receiver does the verification.
	st, err := transport.NewStack(transport.KindTCP, na, opts.Transport)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := NewMesh(transport.KindTCP, nb, opts)
	if err != nil {
		t.Fatal(err)
	}
	var in *Peer
	if err := mb.Listen(9, func(p *Peer) { in = p }); err != nil {
		t.Fatal(err)
	}
	var conn transport.Conn
	loop.Post(func() {
		st.Dial(nb, 9, func(c transport.Conn, err error) {
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			conn = c
		})
	})
	loop.Run()
	if in == nil || conn == nil {
		t.Fatal("not wired")
	}
	var delivered [][]byte
	in.OnMessage(func(_ Class, m []byte) {
		cp := make([]byte, len(m))
		copy(cp, m)
		delivered = append(delivered, cp)
	})
	c0, c1 := pattern(64, 1), pattern(64, 2)
	send := func(frame []byte) {
		loop.Post(func() {
			if err := conn.Send(frame); err != nil {
				t.Errorf("raw send: %v", err)
			}
		})
		loop.Run()
	}
	// Stream 1: chunk 0 valid, chunk 1 carries a corrupted digest.
	send(encodeChunk(ClassBulk, 1, 0, 2, auth.Hash(c0), auth.Digest{}, c0))
	bad := auth.Hash(c1)
	bad[0] ^= 0xFF
	send(encodeChunk(ClassBulk, 1, 1, 2, bad, auth.Hash(c0), c1))
	// Stream 2: chunk 1 breaks the prev-digest chain.
	send(encodeChunk(ClassBulk, 2, 0, 2, auth.Hash(c0), auth.Digest{}, c0))
	wrongPrev := auth.Hash([]byte("not the prev"))
	send(encodeChunk(ClassBulk, 2, 1, 2, auth.Hash(c1), wrongPrev, c1))
	// Stream 3 is fully valid and must still get through.
	send(encodeChunk(ClassBulk, 3, 0, 2, auth.Hash(c0), auth.Digest{}, c0))
	send(encodeChunk(ClassBulk, 3, 1, 2, auth.Hash(c1), auth.Hash(c0), c1))
	// As must a plain whole frame.
	send(encodeWhole(ClassControl, []byte("still alive")))

	if got := *in.mesh.recvErrs; got != 2 {
		t.Fatalf("msgnet.recv_errors = %d, want 2", got)
	}
	want := append(append([]byte{}, c0...), c1...)
	if len(delivered) != 2 || !bytes.Equal(delivered[0], want) || string(delivered[1]) != "still alive" {
		t.Fatalf("delivered %d messages after corruption, want stream 3 + whole frame", len(delivered))
	}
}

// TestBackpressureWatermarks drives the bounded queue: Sends beyond the
// high watermark fail with ErrBacklog (counted, not silent), OnWritable
// fires once the queue drains to the low watermark, and the peak queue
// depth is observable.
func TestBackpressureWatermarks(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxQueueBytes = 8 << 10
	opts.LowWaterBytes = 2 << 10
	opts.Burst = 1
	opts.SubstrateBacklog = 1
	p := newPair(t, transport.KindTCP, opts)
	delivered := 0
	p.ba.OnMessage(func(Class, []byte) { delivered++ })
	writable := 0
	p.ab.OnWritable(func() { writable++ })

	accepted, rejected := 0, 0
	msg := pattern(1<<10, 5)
	for i := 0; i < 32; i++ {
		err := p.ab.Send(ClassControl, msg)
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, ErrBacklog):
			rejected++
		default:
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if rejected == 0 {
		t.Fatal("32 KB of sends never hit the 8 KB high watermark")
	}
	if got := *p.ab.mesh.sendErrs; got != uint64(rejected) {
		t.Errorf("SendErrors = %d, want %d rejected sends", got, rejected)
	}
	if int(*p.ab.mesh.peakQueue) < opts.LowWaterBytes {
		t.Errorf("peak queue %d below low watermark", *p.ab.mesh.peakQueue)
	}
	p.loop.Run()
	if delivered != accepted {
		t.Errorf("delivered %d of %d accepted messages", delivered, accepted)
	}
	if writable != 1 {
		t.Errorf("OnWritable fired %d times, want 1", writable)
	}
	if p.ab.QueueBytes() != 0 || p.ab.queueFrames != 0 {
		t.Errorf("queue not drained: %d bytes / %d frames", p.ab.QueueBytes(), p.ab.queueFrames)
	}
}

// probePeer wires a peer over an inert substrate so tests can inspect
// queue state between scheduler turns without a remote end.
func probePeer(opts Options) (*sim.Loop, *Peer) {
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	node := nw.AddNode("probe")
	m := newMesh(node, nil, opts)
	return loop, m.wrap(&nullConn{})
}

// TestQueueBytesFramedAccounting pins the send-queue accounting to
// on-wire framed bytes on both sides of the chunk boundary: a whole
// message charges its header, a chunked message charges one chunk header
// per chunk, and draining one frame releases exactly that frame's bytes.
// (The old accounting mixed units: whole messages counted framed bytes
// while chunked messages counted the bare payload, so admission and the
// peak series disagreed across the boundary.)
func TestQueueBytesFramedAccounting(t *testing.T) {
	opts := DefaultOptions()
	opts.Burst = 1
	chunk := opts.chunkPayload()
	maxWhole := opts.maxWhole()

	loop, p := probePeer(opts)
	// Largest unchunked message: framed = payload + whole header.
	if err := p.Send(ClassControl, pattern(maxWhole, 1)); err != nil {
		t.Fatal(err)
	}
	if got, want := p.QueueBytes(), maxWhole+wholeHeaderLen; got != want {
		t.Fatalf("whole at boundary: queueBytes = %d, want %d", got, want)
	}
	loop.Run()
	if p.QueueBytes() != 0 {
		t.Fatalf("queue not drained: %d bytes", p.QueueBytes())
	}

	// One byte past the boundary: two chunks, two chunk headers.
	size := maxWhole + 1
	if err := p.Send(ClassBulk, pattern(size, 2)); err != nil {
		t.Fatal(err)
	}
	if got, want := p.QueueBytes(), size+2*chunkHeaderLen; got != want {
		t.Fatalf("chunked past boundary: queueBytes = %d, want %d", got, want)
	}
	if p.queueFrames != 2 {
		t.Fatalf("queue depth = %d frames, want 2", p.queueFrames)
	}
	// One scheduler turn emits one full chunk frame (Burst=1): the queue
	// must release header+payload for that frame, not the payload alone.
	loop.Step()
	if got, want := p.QueueBytes(), size+2*chunkHeaderLen-(chunkHeaderLen+chunk); got != want {
		t.Fatalf("after one chunk: queueBytes = %d, want %d", got, want)
	}
	loop.Run()
	if p.QueueBytes() != 0 || p.queueFrames != 0 {
		t.Fatalf("queue not drained: %d bytes / %d frames", p.QueueBytes(), p.queueFrames)
	}
}

// TestBacklogThenCloseSurfacesAndClearsSuspension is the audit half of
// the suspended flag: a peer that hits ErrBacklog exactly as its
// connection dies must surface every queued message through OnSendError
// and OnClose — and must not fire OnWritable or stay flagged suspended,
// silently waiting for a drain edge that can never come.
func TestBacklogThenCloseSurfacesAndClearsSuspension(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxQueueBytes = 5 << 10 // fits two 2 KiB messages, rejects the third
	opts.LowWaterBytes = 1 << 10
	_, p := probePeer(opts) // loop never runs: the queue stays full
	sendErrs, closes, writables := 0, 0, 0
	p.OnSendError(func(error) { sendErrs++ })
	p.OnClose(func() { closes++ })
	p.OnWritable(func() { writables++ })

	msg := pattern(2<<10, 7)
	if err := p.Send(ClassControl, msg); err != nil {
		t.Fatal(err)
	}
	if err := p.Send(ClassControl, msg); err != nil {
		t.Fatal(err)
	}
	if err := p.Send(ClassControl, msg); !errors.Is(err, ErrBacklog) {
		t.Fatalf("third send: %v, want ErrBacklog", err)
	}
	if !p.suspended {
		t.Fatal("rejected send did not suspend the peer")
	}
	p.connClosed()
	if sendErrs != 2 {
		t.Errorf("OnSendError fired %d times, want 2 (one per queued message)", sendErrs)
	}
	if closes != 1 {
		t.Errorf("OnClose fired %d times, want 1", closes)
	}
	if writables != 0 {
		t.Errorf("OnWritable fired %d times on a dead peer, want 0", writables)
	}
	if p.suspended {
		t.Error("suspended flag wedged on after close")
	}
	if p.QueueBytes() != 0 || p.queueFrames != 0 {
		t.Errorf("queue not cleared: %d bytes / %d frames", p.QueueBytes(), p.queueFrames)
	}
}

// TestBacklogDrainResume closes the loop on the recovery path: backlog,
// drain to the low watermark, OnWritable, and a successful follow-up Send
// that actually delivers.
func TestBacklogDrainResume(t *testing.T) {
	opts := DefaultOptions()
	opts.MaxQueueBytes = 8 << 10
	opts.LowWaterBytes = 2 << 10
	opts.Burst = 1
	opts.SubstrateBacklog = 1
	p := newPair(t, transport.KindTCP, opts)
	delivered := 0
	p.ba.OnMessage(func(Class, []byte) { delivered++ })
	resumed := false
	p.ab.OnWritable(func() {
		resumed = true
		if err := p.ab.Send(ClassControl, pattern(64, 9)); err != nil {
			t.Errorf("send after OnWritable: %v", err)
		}
	})
	accepted := 0
	msg := pattern(1<<10, 5)
	for i := 0; i < 32; i++ {
		if err := p.ab.Send(ClassControl, msg); err == nil {
			accepted++
		} else if !errors.Is(err, ErrBacklog) {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if accepted == 32 {
		t.Fatal("never hit the high watermark")
	}
	p.loop.Run()
	if !resumed {
		t.Fatal("OnWritable never fired after drain")
	}
	if delivered != accepted+1 {
		t.Fatalf("delivered %d, want %d accepted + 1 resumed", delivered, accepted)
	}
}

// TestPooledBufferReuseKeepsPayloadsIntact sends a train of chunked and
// whole messages through the same peer so every later message rides a
// recycled buffer: payloads must survive byte-for-byte, proving frames
// are not recycled while the substrate still needs them.
func TestPooledBufferReuseKeepsPayloadsIntact(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			p := newPair(t, kind, DefaultOptions())
			var recv [][]byte
			p.ba.OnMessage(func(_ Class, m []byte) {
				recv = append(recv, bytes.Clone(m))
			})
			sizes := []int{1 << 20, 100, 600_000, 1 << 20, 0, 300_000}
			p.loop.Post(func() {
				for i, n := range sizes {
					if err := p.ab.Send(ClassBulk, pattern(n, byte(i))); err != nil {
						t.Errorf("send %d: %v", i, err)
					}
				}
			})
			p.loop.Run()
			if len(recv) != len(sizes) {
				t.Fatalf("delivered %d of %d messages", len(recv), len(sizes))
			}
			for i, n := range sizes {
				if !bytes.Equal(recv[i], pattern(n, byte(i))) {
					t.Errorf("message %d (%d bytes) corrupted by buffer reuse", i, n)
				}
			}
		})
	}
}

// TestSendAllocsSteadyState pins the hot-path allocations: a Send plus the
// scheduler turns that drain it allocates nothing once the pools are warm,
// whole-frame and chunked alike.
func TestSendAllocsSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	for _, tc := range []struct{ runs, payload int }{
		{200, 256}, {200, 4 << 10}, {200, 64 << 10}, // one transport frame
		{50, 600_000}, {50, 1 << 20}, {20, 4 << 20}, // chunked
	} {
		if avg := SendAllocsPerOp(tc.runs, tc.payload); avg != 0 {
			t.Errorf("Send of %d bytes allocates %.2f/op, want 0", tc.payload, avg)
		}
	}
}

// TestDialErrorSurfaced dials a port nobody listens on: the error must
// reach the done callback instead of hanging or vanishing.
func TestDialErrorSurfaced(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			loop := sim.NewLoop(1)
			nw := fabric.New(loop, model.Default())
			na, nb := nw.AddNode("a"), nw.AddNode("b")
			nw.Connect(na, nb)
			ma, err := NewMesh(kind, na, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			// The remote needs a stack (to refuse) but no listener on the
			// dialed port; a mesh with no Listen provides exactly that.
			if _, err := NewMesh(kind, nb, DefaultOptions()); err != nil {
				t.Fatal(err)
			}
			called := false
			var dialErr error
			loop.Post(func() {
				ma.Dial(nb, 4242, func(p *Peer, err error) {
					called = true
					dialErr = err
					if p != nil && err != nil {
						t.Error("peer and error both non-nil")
					}
				})
			})
			loop.Run()
			if !called {
				t.Fatal("dial callback never fired")
			}
			if dialErr == nil {
				t.Fatal("dial to unlistened port reported no error")
			}
		})
	}
}

// TestDeterministicDeliveryOrder runs the same interleaved workload twice
// on fresh loops with the same seed: the delivery order must be
// byte-identical, since the chunk scheduler runs on the sim loop.
func TestDeterministicDeliveryOrder(t *testing.T) {
	run := func() string {
		p := newPair(t, transport.KindRDMA, DefaultOptions())
		var order []string
		p.ba.OnMessage(func(c Class, m []byte) {
			order = append(order, fmt.Sprintf("%s/%d", c, len(m)))
		})
		p.loop.Post(func() {
			for i := 0; i < 4; i++ {
				_ = p.ab.Send(ClassBulk, pattern(400_000+i, byte(i)))
				_ = p.ab.Send(ClassControl, pattern(32+i, byte(i)))
			}
		})
		p.loop.Run()
		return fmt.Sprintf("%v@%d", order, p.loop.Processed())
	}
	if a, b := run(), run(); a != b {
		t.Errorf("delivery traces diverge:\n%s\n%s", a, b)
	}
}
