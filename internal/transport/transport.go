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
	"encoding/binary"
	"errors"
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/nio"
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
	// messages arrive; delivery without a callback queues internally.
	// A delivered msg belongs to the receiver: the connection never
	// reads, writes or reuses those bytes again, so the layers above may
	// keep them, and slices of them, for as long as they like.
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
	// Kind reports the backend.
	Kind() Kind
}

// Stack accepts and originates connections on one node.
type Stack interface {
	// Listen accepts inbound connections on a port.
	Listen(port int, accept func(Conn)) error
	// Dial connects to a port on a remote node.
	Dial(remote *fabric.Node, port int, done func(Conn, error))
	// Node returns the fabric node this stack runs on.
	Node() *fabric.Node
	// Kind reports the backend.
	Kind() Kind
}

// NewStack creates a stack of the requested kind on a node. TCP stacks
// require the node to have no other TCP stack; RDMA stacks open the
// node's RNIC.
func NewStack(kind Kind, node *fabric.Node, opts Options) (Stack, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	switch kind {
	case KindTCP:
		return newTCPStack(node, opts), nil
	case KindRDMA:
		return newRDMAStack(node, opts), nil
	default:
		return nil, fmt.Errorf("transport: unknown kind %q", kind)
	}
}

// ---------------------------------------------------------------------------
// TCP / Java-NIO backend
// ---------------------------------------------------------------------------

type tcpStack struct {
	node *fabric.Node
	opts Options
	st   *tcpsim.Stack
	sel  *nio.Selector
}

func newTCPStack(node *fabric.Node, opts Options) *tcpStack {
	st := tcpsim.NewStack(node)
	s := &tcpStack{node: node, opts: opts, st: st, sel: nio.NewSelector(st)}
	s.sel.Select(s.dispatch)
	return s
}

func (s *tcpStack) Node() *fabric.Node { return s.node }
func (s *tcpStack) Kind() Kind         { return KindTCP }

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
	tc := &tcpConn{stack: s, conn: ch.Conn(), ch: ch, readBuf: make([]byte, 64<<10)}
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
	stack   *tcpStack
	conn    *tcpsim.Conn
	ch      *nio.SocketChannel
	key     *nio.SelectionKey
	onMsg   func([]byte)
	onClose func()
	onDrain func()
	closed  bool

	// Reassembly state.
	readBuf []byte
	acc     []byte
	inbox   sim.Queue[[]byte]

	// Send side.
	sendQ      sim.Queue[[]byte]
	flushArmed bool
}

var _ Conn = (*tcpConn)(nil)

func (c *tcpConn) Kind() Kind         { return KindTCP }
func (c *tcpConn) Peer() *fabric.Node { return c.conn.RemoteNode() }

func (c *tcpConn) OnMessage(fn func([]byte)) {
	c.onMsg = fn
	for c.inbox.Len() > 0 && c.onMsg != nil {
		c.onMsg(c.inbox.Pop())
	}
}

func (c *tcpConn) OnClose(fn func()) { c.onClose = fn }

func (c *tcpConn) OnDrain(fn func()) { c.onDrain = fn }

func (c *tcpConn) Unsent() int { return c.sendQ.Len() }

func (c *tcpConn) Send(msg []byte) error {
	if c.closed {
		return ErrClosed
	}
	if len(msg) > c.stack.opts.MaxMessage {
		return fmt.Errorf("%w: %d", ErrTooBig, len(msg))
	}
	framed := make([]byte, 4+len(msg))
	binary.BigEndian.PutUint32(framed, uint32(len(msg)))
	copy(framed[4:], msg)
	c.sendQ.Push(framed)
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
	c.conn.LocalNode().Loop().Post(func() {
		c.flushArmed = false
		c.flush()
	})
}

func (c *tcpConn) flush() {
	wroteAny := false
	for c.sendQ.Len() > 0 && !c.closed {
		n := c.sendQ.Len()
		if n > c.stack.opts.Batch {
			n = c.stack.opts.Batch
		}
		var chunk []byte
		for i := 0; i < n; i++ {
			chunk = append(chunk, *c.sendQ.At(i)...)
		}
		wrote, err := c.conn.Write(chunk)
		if err != nil {
			c.teardown()
			return
		}
		if wrote < len(chunk) {
			// Socket buffer full: the unwritten tail replaces the batch at
			// the head of the queue, to resume on OpWrite readiness.
			for ; n > 1; n-- {
				c.sendQ.Pop()
			}
			if wrote > 0 {
				rest := make([]byte, len(chunk)-wrote)
				copy(rest, chunk[wrote:])
				chunk = rest
			}
			*c.sendQ.Front() = chunk
			if c.ch != nil {
				c.keyInterest(nio.OpRead | nio.OpWrite)
			}
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

func (c *tcpConn) keyInterest(ops nio.InterestOps) {
	// The transport registered the channel; adjust via its key through
	// the selector by re-registering interest on readiness changes.
	if c.key != nil {
		c.key.SetInterest(ops)
	}
}

func (c *tcpConn) drain() {
	if c.closed {
		return
	}
	if c.ch.Closed() {
		c.teardown()
		return
	}
	for {
		n, err := c.ch.Read(c.readBuf)
		if err != nil {
			c.teardown()
			return
		}
		if n == 0 {
			break
		}
		c.acc = append(c.acc, c.readBuf[:n]...)
	}
	params := c.stack.node.Network().Params()
	for {
		if len(c.acc) < 4 {
			break
		}
		size := int(binary.BigEndian.Uint32(c.acc))
		if len(c.acc) < 4+size {
			break
		}
		msg := make([]byte, size)
		copy(msg, c.acc[4:4+size])
		c.acc = c.acc[4+size:]
		// Deframing plus handler dispatch costs real selector-thread
		// time per message.
		c.stack.st.AppThread().Delay(params.TCP.MsgHandle)
		if c.onMsg != nil {
			c.onMsg(msg)
		} else {
			c.inbox.Push(msg)
		}
	}
}

func (c *tcpConn) Close() {
	if c.closed {
		return
	}
	c.conn.Close()
	c.teardown()
}

func (c *tcpConn) teardown() {
	if c.closed {
		return
	}
	c.closed = true
	if c.key != nil {
		c.key.Cancel()
	}
	if c.onClose != nil {
		c.onClose()
	}
}
