// Package transport is the replica communication stack: framed,
// message-oriented, batched connections with two interchangeable backends —
// a Java-NIO-style selector over simulated TCP (package tcpsim), which this
// package holds, and RUBIN over simulated RDMA (package rubin).
//
// This is the integration point the paper describes: Reptor's protocol
// layer talks to exactly this interface, so swapping the NIO selector for
// RUBIN requires no protocol changes (Section III). Both backends coalesce
// up to Options.Batch messages per syscall or doorbell, matching the
// batching of the Figure 4 measurement.
package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/rdma"
	"rubin/internal/sim"
	"rubin/internal/tcpsim"
)

// Errors returned by transport operations.
var (
	ErrTooBig = errors.New("transport: message exceeds MaxMessage")
	ErrClosed = errors.New("transport: connection closed")
)

// Kind identifies a backend.
type Kind string

// Available backends.
const (
	KindTCP  Kind = "tcp-nio"
	KindRDMA Kind = "rdma-rubin"
)

// Options tunes a stack.
type Options struct {
	// Batch is how many queued messages are coalesced per syscall
	// (TCP) or doorbell (RDMA). The paper's Figure 4 uses 10.
	Batch int
	// MaxMessage caps a single message's size (and sizes the RDMA
	// receive buffers).
	MaxMessage int
	// WRs is the RDMA work-request pool depth per connection.
	WRs int
}

// DefaultOptions returns the configuration used by the Figure 4
// experiment.
func DefaultOptions() Options {
	return Options{Batch: 10, MaxMessage: 256 << 10, WRs: 64}
}

func (o Options) validate() error {
	if o.Batch < 1 || o.MaxMessage < 1 || o.WRs < 1 {
		return fmt.Errorf("transport: invalid options %+v", o)
	}
	return nil
}

// Conn is one framed, message-oriented connection.
type Conn interface {
	// Send queues one message for delivery. Messages arrive whole, in
	// order, exactly once (the simulated fabrics are reliable).
	Send(msg []byte) error
	// OnMessage installs the delivery callback. A message delivered
	// before it is installed is queued as a copy and handed to fn when it
	// is. A delivered msg is lent: it is valid until fn returns, after
	// which the connection reuses its memory for later messages, so a
	// layer above that keeps any of it copies what it keeps.
	OnMessage(fn func(msg []byte))
	// OnClose installs a callback for connection teardown.
	OnClose(fn func())
	// Unsent reports how many messages Send has accepted but the backend
	// has not yet handed to the wire (TCP: frames waiting for socket
	// space; RDMA: messages spilled past the work-request pool). Layers
	// above use it as the substrate backpressure signal.
	Unsent() int
	// OnDrain installs a callback fired whenever a previously backlogged
	// connection's unsent queue empties — the writability edge that pairs
	// with Unsent.
	OnDrain(fn func())
	// Peer returns the remote node.
	Peer() *fabric.Node
	// Close tears the connection down.
	Close()
}

// Stack accepts and originates connections on one node.
type Stack interface {
	// Listen accepts inbound connections on a port.
	Listen(port int, accept func(Conn)) error
	// Dial connects to a port on a remote node.
	Dial(remote *fabric.Node, port int, done func(Conn, error))
}

// NewStack creates a stack of the requested kind on a node, multiplexing
// its connections on the node's application thread. TCP stacks require the
// node to have no other TCP stack; RDMA stacks open the node's RNIC.
func NewStack(kind Kind, node *fabric.Node, opts Options) (Stack, error) {
	stacks, err := NewStacks(kind, node, opts, 1)
	if err != nil {
		return nil, err
	}
	return stacks[0], nil
}

// NewStacks creates n stacks of the requested kind on a node — a replica
// host's peer and client stacks, two per pillar: they share the node's TCP
// stack or RNIC, and stack k has a selector of its own on the node's
// application thread k (fabric.Node.Thread).
func NewStacks(kind Kind, node *fabric.Node, opts Options, n int) ([]Stack, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	stacks := make([]Stack, n)
	switch kind {
	case KindTCP:
		st := tcpsim.NewStack(node)
		for k := range stacks {
			stacks[k] = newTCPStack(st.On(node.Thread(k)), opts)
		}
	case KindRDMA:
		dev := rdma.OpenDevice(node)
		for k := range stacks {
			stacks[k] = newRDMAStack(dev, node.Thread(k), opts)
		}
	default:
		return nil, fmt.Errorf("transport: unknown kind %q", kind)
	}
	return stacks, nil
}

// connCore is what a connection is on either backend: the three
// callbacks, the inbox of messages delivered before OnMessage installed
// one, and a teardown that runs once. tcpConn and rdmaConn embed it.
type connCore struct {
	onMsg   func([]byte)
	onClose func()
	onDrain func()
	closed  bool
	inbox   sim.Queue[[]byte]
}

func (c *connCore) OnMessage(fn func([]byte)) {
	c.onMsg = fn
	for c.inbox.Len() > 0 && c.onMsg != nil {
		c.onMsg(c.inbox.Pop())
	}
}

func (c *connCore) OnClose(fn func()) { c.onClose = fn }

func (c *connCore) OnDrain(fn func()) { c.onDrain = fn }

// deliver lends one received message to the callback, or parks a copy of
// it in the inbox until one is installed.
func (c *connCore) deliver(msg []byte) {
	if c.onMsg != nil {
		c.onMsg(msg)
	} else {
		c.inbox.Push(bytes.Clone(msg))
	}
}

// teardown marks the connection closed, cancels its selection key and
// fires OnClose — once, however many paths (Close, a failed write, a
// dead channel seen by drain) get there.
func (c *connCore) teardown(key interface{ Cancel() }) {
	if c.closed {
		return
	}
	c.closed = true
	key.Cancel()
	if c.onClose != nil {
		c.onClose()
	}
}

// ---------------------------------------------------------------------------
// TCP / Java-NIO backend
// ---------------------------------------------------------------------------

// tcpStack is the baseline of the paper's Figure 4: a Java NIO selector,
// all of the stack's sockets multiplexed on one application thread, each
// select turn priced by the epoll dispatch on the host CPU.
type tcpStack struct {
	node   *fabric.Node
	thread *sim.Resource
	opts   Options
	st     *tcpsim.Stack

	// The selector: the keys of the stack's listeners and connections in
	// registration order, each with a flag for the ready set and a count of
	// the flags set. One select turn is scheduled at a time, so its callback
	// is bound once and its key list is one slice, good until the next turn.
	keys   []*tcpKey
	queued int
	turn   []*tcpKey
	pumped bool   // a turn is already scheduled
	turnFn func() // s.selectTurn
}

// newTCPStack puts a selector on st's application thread.
func newTCPStack(st *tcpsim.Stack, opts Options) *tcpStack {
	s := &tcpStack{node: st.Node(), thread: st.Thread(), opts: opts, st: st}
	s.turnFn = s.selectTurn
	return s
}

func (s *tcpStack) Listen(port int, accept func(Conn)) error {
	k := &tcpKey{stack: s, interest: opAccept, accept: accept}
	_, err := s.st.Listen(port, func(c *tcpsim.Conn) {
		k.backlog.Push(c)
		k.signal(opAccept)
	})
	if err != nil {
		return err
	}
	s.keys = append(s.keys, k)
	return nil
}

func (s *tcpStack) Dial(remote *fabric.Node, port int, done func(Conn, error)) {
	s.st.Dial(remote, port, func(c *tcpsim.Conn, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(s.wrap(c), nil)
	})
}

// wrap builds the framed connection around an established socket and
// registers it for reads (set-up: the socket's callbacks are closures).
func (s *tcpStack) wrap(conn *tcpsim.Conn) *tcpConn {
	tc := &tcpConn{stack: s, conn: conn}
	tc.key = tcpKey{stack: s, conn: tc}
	tc.flushFn = tc.flushTurn
	conn.OnReadable(func() { tc.key.signal(opRead) })
	conn.OnWritable(func() { tc.key.signal(opWrite) })
	conn.OnClose(func() {
		// A peer's close shows as read readiness: the read finds it.
		tc.peerClosed = true
		tc.key.signal(opRead)
	})
	s.keys = append(s.keys, &tc.key)
	tc.key.setInterest(opRead)
	return tc
}

// pump puts k in the ready set and, unless one is already scheduled,
// schedules a select turn behind the epoll_wait return and key scan of the
// Java selector on the node's CPU.
func (s *tcpStack) pump(k *tcpKey) {
	if k.cancelled {
		return
	}
	if !k.queued {
		k.queued = true
		s.queued++
	}
	if !s.pumped {
		s.pumped = true
		s.node.CPU.Acquire(model.Dispatch, s.node.Network().Params().Selector.NIODispatch, s.turnFn)
	}
}

// selectTurn is one select turn, the stack's single selector loop. It
// serves the keys queued when it started, in registration order: what it
// makes ready waits for the next turn. Readiness is level-triggered, so a
// key the turn leaves ready is queued again.
func (s *tcpStack) selectTurn() {
	s.pumped = false
	s.turn = s.turn[:0]
	for _, k := range s.keys {
		if k.queued {
			k.queued = false
			s.turn = append(s.turn, k)
		}
	}
	s.queued = 0
	for _, k := range s.turn {
		tc := k.conn
		if tc == nil { // a listener: accept its whole backlog
			for k.backlog.Len() > 0 {
				c := s.wrap(k.backlog.Pop())
				if k.accept != nil {
					k.accept(c)
				}
			}
			k.ready = 0
			continue
		}
		if k.ready&opRead != 0 {
			tc.drain()
		}
		if k.ready&opWrite != 0 {
			// Room in a full socket: the rest of the send buffer goes out.
			// No experiment reaches this yet: a short write that fills the
			// window gets no writability edge (ROADMAP O15(3)).
			k.ready &^= opWrite
			k.setInterest(opRead)
			tc.flush()
		}
	}
	for _, k := range s.turn {
		if k.ready&k.interest != 0 {
			s.pump(k)
		}
	}
}

// Interest and readiness bits of a key: java.nio's SelectionKey.OP_ACCEPT,
// OP_READ and OP_WRITE.
const (
	opAccept uint8 = 1 << iota
	opRead
	opWrite
)

// tcpKey is a listener's or a connection's registration with its stack's
// selector. A ready bit stays set until the turn consumes it: the backlog
// accepted, the socket drained, the write resumed.
type tcpKey struct {
	stack             *tcpStack
	interest, ready   uint8
	queued, cancelled bool

	conn *tcpConn // nil on a listener's key
	// A listener's established inbound connections, waiting for the turn
	// that accepts them.
	backlog sim.Queue[*tcpsim.Conn]
	accept  func(Conn)
}

// signal sets the bits of ops the key is interested in ready and queues it.
func (k *tcpKey) signal(ops uint8) {
	if r := ops & k.interest; r != 0 {
		k.ready |= r
		k.stack.pump(k)
	}
}

// setInterest replaces a connection key's interest set; what its socket is
// ready for already among the new set is ready at once.
func (k *tcpKey) setInterest(ops uint8) {
	k.interest = ops
	if r := k.conn.readiness() & ops; r != 0 {
		k.ready |= r
		k.stack.pump(k)
	}
}

// Cancel takes the key out of the ready set and off its stack's list, once
// its connection is torn down.
func (k *tcpKey) Cancel() {
	k.cancelled = true
	if k.queued {
		k.queued = false
		k.stack.queued--
	}
	i := slices.Index(k.stack.keys, k)
	k.stack.keys = slices.Delete(k.stack.keys, i, i+1)
}

// tcpConn frames messages with a 4-byte big-endian length prefix and
// coalesces up to Batch messages per write syscall.
type tcpConn struct {
	connCore
	stack      *tcpStack
	conn       *tcpsim.Conn
	key        tcpKey
	peerClosed bool

	// Reassembly state: acc is the user-space receive buffer, holding
	// what read() returned and deframing has not yet consumed.
	acc bytes.Buffer

	// Send side: out is the user-space send buffer, the frames Send
	// accepted back to back; sendQ holds the length of each entry in it —
	// a frame, or the unwritten tail a short write merged its batch into.
	out        bytes.Buffer
	sendQ      sim.Queue[int]
	flushArmed bool
	flushFn    func() // c.flushTurn
}

var _ Conn = (*tcpConn)(nil)

func (c *tcpConn) Peer() *fabric.Node { return c.conn.RemoteNode() }

func (c *tcpConn) Unsent() int { return c.sendQ.Len() }

func (c *tcpConn) Send(msg []byte) error {
	if c.closed {
		return ErrClosed
	}
	if len(msg) > c.stack.opts.MaxMessage {
		return fmt.Errorf("%w: %d", ErrTooBig, len(msg))
	}
	var header [4]byte
	binary.BigEndian.PutUint32(header[:], uint32(len(msg)))
	c.out.Write(header[:])
	c.out.Write(msg)
	c.sendQ.Push(4 + len(msg))
	c.armFlush()
	return nil
}

// armFlush schedules one coalesced write at the end of the current event
// turn (the batching of the Figure 4 experiment).
func (c *tcpConn) armFlush() {
	if c.flushArmed || c.closed {
		return
	}
	c.flushArmed = true
	c.conn.LocalNode().Loop().Post(c.flushFn)
}

func (c *tcpConn) flushTurn() {
	c.flushArmed = false
	c.flush()
}

func (c *tcpConn) flush() {
	wroteAny := false
	for c.sendQ.Len() > 0 && !c.closed {
		n, size := min(c.sendQ.Len(), c.stack.opts.Batch), 0
		for i := 0; i < n; i++ {
			size += *c.sendQ.At(i)
		}
		// Write copies before it returns, so it may be handed the buffer's
		// own bytes.
		wrote, err := c.conn.Write(c.out.Bytes()[:size])
		if err != nil {
			c.teardown(&c.key)
			return
		}
		c.out.Next(wrote)
		if wrote < size {
			// Socket buffer full: the unwritten tail replaces the batch at
			// the head of the queue, to resume on OpWrite readiness.
			for ; n > 1; n-- {
				c.sendQ.Pop()
			}
			*c.sendQ.Front() = size - wrote
			c.key.setInterest(opRead | opWrite)
			return
		}
		for ; n > 0; n-- {
			c.sendQ.Pop()
		}
		wroteAny = true
	}
	if wroteAny && c.sendQ.Len() == 0 && !c.closed && c.onDrain != nil {
		c.onDrain()
	}
}

func (c *tcpConn) drain() {
	if c.closed {
		return
	}
	if c.peerClosed {
		c.teardown(&c.key)
		return
	}
	for {
		// One read() of up to 64 KiB, straight into acc's spare room. The
		// last one finds nothing and is still made: it is what reports a
		// torn-down connection.
		window := min(c.conn.Readable(), 64<<10)
		c.acc.Grow(window)
		n, err := c.conn.Read(c.acc.AvailableBuffer()[:window])
		if err != nil {
			c.teardown(&c.key)
			return
		}
		if n == 0 {
			break
		}
		c.acc.Write(c.acc.AvailableBuffer()[:n]) // in place: commits, copies nothing
	}
	c.key.ready &^= opRead // drained
	params := c.stack.node.Network().Params()
	for {
		acc := c.acc.Bytes()
		if len(acc) < 4 {
			break
		}
		size := int(binary.BigEndian.Uint32(acc))
		if len(acc) < 4+size {
			break
		}
		// Delivered in place, lent from the receive buffer, and zeroed once
		// the callback returns: a reader that kept it by mistake loses its
		// bytes at once, not when a later read() happens to reuse them.
		msg := c.acc.Next(4 + size)[4:]
		// Deframing plus handler dispatch costs real app-thread time
		// per message.
		c.stack.thread.Delay(model.MsgHandle, params.TCP.MsgHandle)
		c.deliver(msg)
		clear(msg)
	}
}

func (c *tcpConn) Close() {
	if c.closed {
		return
	}
	c.conn.Close()
	c.teardown(&c.key)
}

// readiness is what the connection's socket is ready for now.
func (c *tcpConn) readiness() uint8 {
	var r uint8
	if c.conn.Readable() > 0 || c.peerClosed {
		r |= opRead
	}
	if c.conn.WritableSpace() > 0 {
		r |= opWrite
	}
	return r
}
