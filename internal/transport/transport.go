// Package transport is the replica communication stack: framed,
// message-oriented, batched connections with two interchangeable backends —
// the Java-NIO-style selector over simulated TCP (package nio) and RUBIN
// over simulated RDMA (package rubin).
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

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/nio"
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
	// OnMessage installs the delivery callback. Must be set before
	// messages arrive; delivery without a callback queues a copy
	// internally. A delivered msg is lent: it is valid until fn returns,
	// after which the connection reuses its memory for later messages, so
	// a layer above that keeps any of it copies what it keeps.
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

type tcpStack struct {
	node   *fabric.Node
	thread *sim.Resource
	opts   Options
	st     *tcpsim.Stack
	sel    *nio.Selector
}

// newTCPStack puts a selector on st's application thread.
func newTCPStack(st *tcpsim.Stack, opts Options) *tcpStack {
	s := &tcpStack{node: st.Node(), thread: st.Thread(), opts: opts, st: st, sel: nio.NewSelector(st)}
	s.sel.Select(s.dispatch)
	return s
}

func (s *tcpStack) Listen(port int, accept func(Conn)) error {
	ssc, err := nio.ListenSocket(s.st, port)
	if err != nil {
		return err
	}
	s.sel.Register(ssc, nio.OpAccept, accept)
	return nil
}

func (s *tcpStack) Dial(remote *fabric.Node, port int, done func(Conn, error)) {
	s.st.Dial(remote, port, func(c *tcpsim.Conn, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		tc := s.wrap(nio.WrapConn(c))
		done(tc, nil)
	})
}

// wrap builds the framed connection around an established socket channel
// and registers it for reads.
func (s *tcpStack) wrap(ch *nio.SocketChannel) *tcpConn {
	tc := &tcpConn{stack: s, conn: ch.Conn(), ch: ch}
	tc.flushFn = tc.flushTurn
	tc.key = s.sel.Register(ch, nio.OpRead, tc)
	return tc
}

// dispatch is the stack's single selector loop.
func (s *tcpStack) dispatch(keys []*nio.SelectionKey) {
	for _, k := range keys {
		switch ch := k.Channel().(type) {
		case *nio.ServerSocketChannel:
			if k.Ready()&nio.OpAccept != 0 {
				accept, _ := k.Attachment().(func(Conn))
				for {
					sc := ch.Accept()
					if sc == nil {
						break
					}
					tc := s.wrap(sc)
					if accept != nil {
						accept(tc)
					}
				}
			}
		case *nio.SocketChannel:
			tc, _ := k.Attachment().(*tcpConn)
			if tc == nil {
				k.ResetReady(k.Ready())
				continue
			}
			if k.Ready()&nio.OpRead != 0 {
				tc.drain()
			}
			if k.Ready()&nio.OpWrite != 0 {
				k.ResetReady(nio.OpWrite)
				k.SetInterest(nio.OpRead)
				tc.flush()
			}
		}
	}
}

// tcpConn frames messages with a 4-byte big-endian length prefix and
// coalesces up to Batch messages per write syscall.
type tcpConn struct {
	connCore
	stack *tcpStack
	conn  *tcpsim.Conn
	ch    *nio.SocketChannel
	key   *nio.SelectionKey

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
			c.teardown(c.key)
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
			c.key.SetInterest(nio.OpRead | nio.OpWrite)
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
	if c.ch.Closed() {
		c.teardown(c.key)
		return
	}
	for {
		// One read() of up to 64 KiB, straight into acc's spare room. The
		// last one finds nothing and is still made: it is what reports a
		// torn-down connection and clears OpRead.
		window := min(c.ch.Readable(), 64<<10)
		c.acc.Grow(window)
		n, err := c.ch.Read(c.acc.AvailableBuffer()[:window])
		if err != nil {
			c.teardown(c.key)
			return
		}
		if n == 0 {
			break
		}
		c.acc.Write(c.acc.AvailableBuffer()[:n]) // in place: commits, copies nothing
	}
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
	c.teardown(c.key)
}
