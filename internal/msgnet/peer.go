package msgnet

import (
	"bytes"
	"fmt"
	"slices"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// outItem is one accepted message waiting in a class queue. msg is a
// pooled buffer already laid out as the message's wire frames: one whole
// frame (count==0), or count digest-chained chunk frames back to back,
// payload in place and headers filled in at emission time (the digest
// chain is only known then). index/prev track the emission cursor. The
// buffer and the item return to the mesh pool once the substrate has
// accepted the last frame.
type outItem struct {
	msg    []byte
	stream uint64
	count  uint32
	index  uint32
	prev   auth.Digest

	// Set only while span recording is on: the enqueue instant, so the
	// final dequeue can emit a send-queue-wait span.
	traced bool
	enqAt  sim.Time
}

// inStream is the reassembly state of one inbound chunked message: each
// verified chunk's payload is copied out of its lent frame into msg, the
// stream's one buffer, made when the first chunk arrives.
type inStream struct {
	class Class
	count uint32
	next  uint32
	prev  auth.Digest
	msg   []byte
}

// Peer is one bidirectional message channel to a remote node. Handles are
// created by Mesh.Dial and Mesh.Listen and survive protocol-layer
// restarts: callbacks may be re-installed at any time.
type Peer struct {
	mesh   *Mesh
	conn   transport.Conn
	closed bool

	// Delivery.
	onMsg   func(Class, []byte)
	inbox   sim.Queue[inboxEntry]
	streams map[uint64]*inStream

	// Send scheduling. queueBytes counts on-wire framed bytes (headers
	// included) for every queued frame, so admission, watermarks and the
	// peak series all speak the same unit. pumpFn is the pump bound once
	// at creation so arming does not allocate a method value per turn.
	queues      [numClasses]sim.Queue[*outItem]
	cursor      int
	queueBytes  int
	queueFrames int
	pumpArmed   bool
	waitDrain   bool
	suspended   bool // a Send was rejected; OnWritable pending
	nextStream  uint64
	pumpFn      func()

	// Error surface; the counts live in the mesh's stat cells.
	onClose    func()
	onSendErr  func(error)
	onWritable func()
}

type inboxEntry struct {
	class Class
	msg   []byte
}

// Remote returns the peer's node.
func (p *Peer) Remote() *fabric.Node { return p.conn.Peer() }

// Closed reports whether the peer (or its substrate connection) is torn
// down.
func (p *Peer) Closed() bool { return p.closed }

// QueueBytes returns the bytes currently queued for sending.
func (p *Peer) QueueBytes() int { return p.queueBytes }

// OnMessage installs the delivery callback, receiving each reassembled
// message with its traffic class. Messages arriving before a callback is
// installed queue internally, as copies, so a restarted consumer can
// re-attach without loss. A delivered msg is lent: it is valid until fn
// returns, after which the transport below reuses its memory, so a consumer
// may decode it by reference but copies whatever it keeps.
func (p *Peer) OnMessage(fn func(class Class, msg []byte)) {
	p.onMsg = fn
	for p.inbox.Len() > 0 && p.onMsg != nil {
		e := p.inbox.Pop()
		p.onMsg(e.class, e.msg)
	}
}

// OnClose installs a callback for peer teardown.
func (p *Peer) OnClose(fn func()) { p.onClose = fn }

// OnSendError installs the asynchronous delivery-failure callback: it
// fires once per message dropped by a dying connection and once per
// message a failed substrate send carried (a bundle carries several).
// Synchronous failures are returned by Send itself; both paths increment
// SendErrors by the same amount, so counting in the hook and checking
// Send's return never double-reports or under-reports a failure.
func (p *Peer) OnSendError(fn func(error)) { p.onSendErr = fn }

// OnWritable installs the backpressure-release callback: after a Send
// has been rejected with ErrBacklog, it fires once the queue drains to
// the low watermark.
func (p *Peer) OnWritable(fn func()) { p.onWritable = fn }

// Close tears the peer down. Queued messages are reported as failed
// through the send-error surface, never silently discarded.
func (p *Peer) Close() {
	if p.closed {
		return
	}
	p.conn.Close() // triggers connClosed via the conn's OnClose
	p.connClosed()
}

// Send queues one message of the given class for delivery. Messages
// above the transport's frame limit are fragmented transparently; the
// error return is never nil for a message that will not be delivered
// barring connection failure (which reports through OnSendError).
func (p *Peer) Send(class Class, msg []byte) error {
	if p.closed {
		return p.sendFail(ErrClosed)
	}
	if int(class) >= numClasses {
		return p.sendFail(fmt.Errorf("msgnet: invalid class %d", class))
	}
	if len(msg) > p.mesh.opts.MaxTransfer {
		return p.sendFail(fmt.Errorf("%w: %d bytes", ErrTooBig, len(msg)))
	}
	// framed is the total on-wire size this message will occupy, headers
	// included — whole frames pay wholeHeaderLen, chunked messages pay
	// one chunkHeaderLen per chunk.
	var count uint32
	framed := wholeHeaderLen + len(msg)
	if len(msg) > p.mesh.opts.maxWhole() {
		chunk := p.mesh.opts.chunkPayload()
		count = uint32((len(msg) + chunk - 1) / chunk)
		framed = len(msg) + int(count)*chunkHeaderLen
	}
	if p.queueBytes > 0 && p.queueBytes+framed > p.mesh.opts.MaxQueueBytes {
		p.suspended = true
		return p.sendFail(fmt.Errorf("%w: %d bytes queued", ErrBacklog, p.queueBytes))
	}
	// The queue may outlive the caller's buffer by many events, so the
	// item owns a copy — a pooled buffer pre-laid-out as the wire frames
	// themselves, so the pump slices frames out instead of re-encoding
	// and a steady-state Send allocates nothing.
	it := p.mesh.items.Get()
	it.msg = p.mesh.getBuf(framed)
	if count > 0 {
		chunk := p.mesh.opts.chunkPayload()
		stride := chunkHeaderLen + chunk
		for i := 0; i*chunk < len(msg); i++ {
			end := (i + 1) * chunk
			if end > len(msg) {
				end = len(msg)
			}
			copy(it.msg[i*stride+chunkHeaderLen:], msg[i*chunk:end])
		}
		it.count = count
		it.stream = p.nextStream
		p.nextStream++
		p.queueFrames += int(count)
	} else {
		it.msg[0] = frameWhole
		it.msg[1] = byte(class)
		copy(it.msg[wholeHeaderLen:], msg)
		p.queueFrames++
	}
	if p.mesh.node.Network().Tracer().SpansEnabled() {
		it.traced, it.enqAt = true, p.mesh.node.Loop().Now()
	}
	p.queues[class].Push(it)
	p.queueBytes += framed
	if peak := p.mesh.peakQueue; uint64(p.queueBytes) > *peak {
		*peak = uint64(p.queueBytes)
	}
	p.arm()
	return nil
}

// sendFail counts and returns a synchronous send error.
func (p *Peer) sendFail(err error) error {
	*p.mesh.sendErrs++
	return err
}

// arm schedules one scheduler turn on the sim loop (deterministic: Post
// ordering is the loop's (time, seq) order).
func (p *Peer) arm() {
	if p.pumpArmed || p.waitDrain || p.closed {
		return
	}
	p.pumpArmed = true
	p.mesh.node.Loop().Post(p.pumpFn)
}

// pump releases up to Burst frames to the substrate, round-robining the
// class queues, then yields; a bundle is one frame. It pauses on
// substrate backlog and resumes on the connection's drain edge, so a bulk
// stream is metered into the wire queue instead of monopolizing it.
func (p *Peer) pump() {
	p.pumpArmed = false
	if p.closed {
		return
	}
	for budget := p.mesh.opts.Burst; budget > 0; budget-- {
		if p.conn.Unsent() >= p.mesh.opts.SubstrateBacklog {
			p.waitDrain = true
			return
		}
		f, fin, msgs := p.nextFrame()
		if msgs == 0 {
			break
		}
		err := p.conn.Send(f)
		if fin != nil {
			// Both substrates copy what they need inside Send (see the
			// buffer-ownership rules in docs/ARCHITECTURE.md), so the
			// completed item's buffer recycles immediately — even when
			// the send failed.
			p.mesh.putBuf(fin.msg)
			*fin = outItem{}
			p.mesh.items.Put(fin)
		}
		if err != nil {
			p.asyncSendFail(err, msgs)
			return
		}
	}
	if p.queueFrames > 0 {
		p.arm()
	}
	p.signalWritable()
}

// nextFrame returns the next frame in class round-robin order: one whole
// message, a bundle of it and the whole messages behind it, or one chunk
// of the head-of-line chunked message. Every frame is a slice of an
// item's owned buffer — chunk headers are filled in place here, where the
// digest chain is known. fin is non-nil when this frame completes its
// message (or is a bundle): the caller recycles fin's buffer and item
// once the substrate send returns. msgs is how many messages the frame
// carries (a chunk carries part of one), 0 when every queue is empty.
// queueBytes drops by exactly the framed bytes each dequeued message was
// admitted with.
func (p *Peer) nextFrame() (f []byte, fin *outItem, msgs int) {
	for i := 0; i < numClasses; i++ {
		cls := (p.cursor + i) % numClasses
		q := &p.queues[cls]
		if q.Len() == 0 {
			continue
		}
		it := *q.Front()
		p.cursor = (cls + 1) % numClasses
		p.queueFrames--
		if it.count == 0 {
			q.Pop()
			p.queueBytes -= len(it.msg)
			p.traceDequeue(it, Class(cls))
			if b, members := p.bundle(q, it, Class(cls)); b != nil {
				return b.msg, b, members
			}
			return it.msg, it, 1
		}
		stride := chunkHeaderLen + p.mesh.opts.chunkPayload()
		start := int(it.index) * stride
		end := start + stride
		if end > len(it.msg) {
			end = len(it.msg)
		}
		f = it.msg[start:end]
		payload := f[chunkHeaderLen:]
		p.chargeDigest(len(payload))
		digest := auth.Hash(payload)
		putChunkHeader(f, Class(cls), it.stream, it.index, it.count, digest, it.prev)
		it.index++
		it.prev = digest
		p.queueBytes -= len(f)
		if it.index == it.count {
			q.Pop()
			p.traceDequeue(it, Class(cls))
			fin = it
		}
		return f, fin, 1
	}
	return nil, nil, 0
}

// bundle packs head, a whole message just dequeued from q, together with
// the whole messages queued behind it into one bundle frame, while the
// frame stays within bundleMax and MaxMessage. It returns the bundle as
// an item of its own, for the pump to send and recycle like a whole
// frame, with its member count; or nil — head then travels alone — when
// head is empty or too big, or the message behind it cannot join.
// Nothing waits for company: only what is already queued is packed. The
// members are copied out and recycled here.
func (p *Peer) bundle(q *sim.Queue[*outItem], head *outItem, cls Class) (*outItem, int) {
	limit := min(bundleMax, p.mesh.opts.Transport.MaxMessage)
	size := wholeHeaderLen + bundled(head)
	if bundled(head) == 0 || size > limit {
		return nil, 0
	}
	n := 0
	for ; n < q.Len(); n++ {
		next := bundled(*q.At(n))
		if next == 0 || size+next > limit {
			break
		}
		size += next
	}
	if n == 0 {
		return nil, 0
	}
	members := n + 1
	b := p.mesh.items.Get()
	b.msg = p.mesh.getBuf(size)
	b.msg[0], b.msg[1] = frameBundle, byte(cls)
	off := putMember(b.msg, wholeHeaderLen, head.msg[wholeHeaderLen:])
	p.mesh.putBuf(head.msg)
	*head = outItem{}
	p.mesh.items.Put(head)
	for ; n > 0; n-- {
		it := q.Pop()
		p.queueFrames--
		p.queueBytes -= len(it.msg)
		p.traceDequeue(it, cls)
		off = putMember(b.msg, off, it.msg[wholeHeaderLen:])
		p.mesh.putBuf(it.msg)
		*it = outItem{}
		p.mesh.items.Put(it)
	}
	return b, members
}

// bundled is the bytes a queued message adds to a bundle frame, or 0 when
// it cannot join one: it is chunked or empty.
func bundled(it *outItem) int {
	if it.count > 0 || len(it.msg) == wholeHeaderLen {
		return 0
	}
	return memberHeaderLen + len(it.msg) - wholeHeaderLen
}

// traceDequeue emits the send-queue-wait span of a fully dequeued item.
// Zero-wait messages (dequeued at their enqueue instant, the common case
// off saturation) are skipped — the trace shows contention, not traffic.
func (p *Peer) traceDequeue(it *outItem, cls Class) {
	if !it.traced {
		return
	}
	now := p.mesh.node.Loop().Now()
	if now > it.enqAt {
		p.mesh.node.Network().Tracer().Span("msgnet", "sendq "+cls.String(),
			p.mesh.node.Name()+"->"+p.Remote().Name(), "", it.enqAt, now)
	}
}

// signalWritable fires OnWritable once the queue has drained to the low
// watermark after a rejected Send.
func (p *Peer) signalWritable() {
	if !p.suspended || p.queueBytes > p.mesh.opts.LowWaterBytes {
		return
	}
	p.suspended = false
	if p.onWritable != nil {
		p.mesh.node.Loop().Post(p.onWritable)
	}
}

// substrateDrained is the conn's drain edge: resume a paused scheduler.
func (p *Peer) substrateDrained() {
	if !p.waitDrain {
		return
	}
	p.waitDrain = false
	p.arm()
}

// asyncSendFail surfaces a substrate-level send failure of a frame
// carrying msgs messages: one error each, as connClosed reports each
// message still queued.
func (p *Peer) asyncSendFail(err error, msgs int) {
	*p.mesh.sendErrs += uint64(msgs)
	if p.onSendErr != nil {
		for i := 0; i < msgs; i++ {
			p.onSendErr(err)
		}
	}
	if err == transport.ErrClosed {
		p.connClosed()
	}
}

// connClosed tears the peer down, reporting every queued-but-undelivered
// message through the send-error surface.
func (p *Peer) connClosed() {
	if p.closed {
		return
	}
	p.closed = true
	dropped := 0
	for cls := range p.queues {
		q := &p.queues[cls]
		dropped += q.Len()
		for q.Len() > 0 {
			it := q.Pop()
			p.mesh.putBuf(it.msg)
			*it = outItem{}
			p.mesh.items.Put(it)
		}
	}
	p.queueBytes = 0
	p.queueFrames = 0
	// A Send rejected at the high watermark leaves suspended set, waiting
	// for a drain edge that will never come on a dead connection. Clear
	// it: the failure surfaces through the per-message send errors below
	// and OnClose — OnWritable must never fire on a closed peer, and a
	// wedged flag must not linger either.
	p.suspended = false
	p.streams = make(map[uint64]*inStream)
	if dropped > 0 {
		*p.mesh.sendErrs += uint64(dropped)
		if p.onSendErr != nil {
			// One invocation per dropped message, matching the counter,
			// so per-invocation consumers tally the same total.
			err := fmt.Errorf("%w: queued message dropped", ErrClosed)
			for i := 0; i < dropped; i++ {
				p.onSendErr(err)
			}
		}
	}
	if p.onClose != nil {
		p.onClose()
	}
}

// dispatch handles one inbound transport message: decode the frame,
// unpack a bundle or verify the chunk chain and reassemble, deliver.
func (p *Peer) dispatch(raw []byte) {
	if p.closed {
		return // frames (including late chunks) after Close are dropped
	}
	f, err := decodeFrame(raw)
	if err != nil || int(f.class) >= numClasses {
		p.recvFail() // malformed, or of a class nobody defined
		return
	}
	switch f.kind {
	case frameWhole:
		p.handOff(f.class, f.payload)
		return
	case frameBundle:
		// decodeFrame checked the layout. Each member is a sub-slice of
		// the lent buffer.
		for rest := f.payload; len(rest) > 0 && !p.closed; {
			var m []byte
			m, rest = nextMember(rest)
			p.handOff(f.class, m)
		}
		return
	}
	p.chargeDigest(len(f.payload))
	if auth.Hash(f.payload) != f.digest {
		delete(p.streams, f.stream)
		p.recvFail() // the chunk fails its digest
		return
	}
	st := p.streams[f.stream]
	if st == nil {
		// A message that fits one frame is never chunked, so a stream
		// spans at least two chunks: a first chunk whose count was
		// corrupted to 1 would otherwise complete a truncated message.
		if f.index != 0 || f.count < 2 || int(f.count) > p.maxChunks() {
			p.recvFail() // starts past its first chunk, or advertises too few or too many
			return
		}
		// Every chunk but the last is as long as the first.
		size := min(int(f.count)*len(f.payload), p.mesh.opts.MaxTransfer)
		st = &inStream{class: f.class, count: f.count, msg: make([]byte, 0, size)}
		p.streams[f.stream] = st
	}
	if f.index != st.next || f.count != st.count || f.class != st.class || f.prev != st.prev {
		delete(p.streams, f.stream)
		p.recvFail() // the chunk chain is broken
		return
	}
	st.msg = append(st.msg, f.payload...)
	st.next++
	st.prev = f.digest
	if st.next == st.count {
		delete(p.streams, f.stream)
		p.handOff(st.class, slices.Clip(st.msg))
	}
}

// maxChunks bounds an advertised stream length by MaxTransfer.
func (p *Peer) maxChunks() int {
	chunk := p.mesh.opts.chunkPayload()
	return (p.mesh.opts.MaxTransfer + chunk - 1) / chunk
}

// recvFail counts a rejected inbound frame (msgnet.recv_errors). Only the
// stream it belonged to is dropped; other streams and later messages are
// unaffected.
func (p *Peer) recvFail() { *p.mesh.recvErrs++ }

// handOff lends msg to the consumer, or parks a copy of it until one is
// installed.
func (p *Peer) handOff(class Class, msg []byte) {
	if p.onMsg != nil {
		p.onMsg(class, msg)
	} else {
		p.inbox.Push(inboxEntry{class: class, msg: bytes.Clone(msg)})
	}
}

// chargeDigest models the CPU cost of hashing one chunk payload on the
// node, keeping virtual-time traces honest about the chunking overhead.
func (p *Peer) chargeDigest(n int) {
	params := p.mesh.node.Network().Params()
	p.mesh.node.CPU.Delay(model.Digest, auth.DigestCost(params.Crypto, n))
}
