// Package nio recreates the Java NIO selector/channel abstraction over the
// simulated TCP stack. It is the baseline RUBIN is measured against in the
// paper's Figure 4: BFT frameworks (BFT-SMaRt, UpRight, Reptor) multiplex
// all replica connections onto a single thread with exactly this interface,
// which is why RUBIN mimics it.
//
// The selector is event-driven rather than blocking: Select(handler)
// registers a callback that runs (once per readiness batch, after the
// modeled epoll dispatch cost) whenever registered channels become ready.
package nio

import (
	"rubin/internal/model"
	"rubin/internal/sim"
	"rubin/internal/tcpsim"
)

// InterestOps is the bitmask of I/O events a selection key watches,
// mirroring java.nio.channels.SelectionKey.
type InterestOps uint8

// Interest/readiness bits.
const (
	OpAccept InterestOps = 1 << iota
	OpRead
	OpWrite
)

// Channel is anything registrable with a Selector.
type Channel interface {
	bind(k *SelectionKey)
	readiness() InterestOps
}

// Selector multiplexes readiness events from many channels onto a single
// application thread.
type Selector struct {
	stack   *tcpsim.Stack
	keys    []*SelectionKey
	handler func([]*SelectionKey)

	// The ready set is a flag per key and a count; dispatch admits one
	// select turn at a time, so the turn's callback is bound once and its
	// key list is one slice, good until the next turn.
	queued     int
	turn       []*SelectionKey
	dispatch   bool   // a dispatch is already scheduled
	dispatchFn func() // s.dispatchTurn

	wakeups uint64
}

// NewSelector creates a selector bound to a node's TCP stack.
func NewSelector(stack *tcpsim.Stack) *Selector {
	s := &Selector{stack: stack}
	s.dispatchFn = s.dispatchTurn
	return s
}

// Register attaches a channel to the selector with the given interest set
// and optional attachment, returning its selection key.
func (s *Selector) Register(ch Channel, ops InterestOps, attachment any) *SelectionKey {
	k := &SelectionKey{sel: s, ch: ch, interest: ops, attachment: attachment}
	s.keys = append(s.keys, k)
	ch.bind(k)
	// Channels may already be ready at registration time (e.g. a
	// writable socket registered for OpWrite).
	if r := ch.readiness() & ops; r != 0 {
		k.ready |= r
		s.enqueue(k)
	}
	return k
}

// Select installs the readiness handler. The handler runs once per
// readiness batch with the set of ready keys; readiness bits persist until
// consumed (read drained, write performed, accept taken), Java-style. The
// keys slice is reused by the next turn.
//
// Contract: like a level-triggered epoll loop, the handler MUST consume or
// explicitly clear (ResetReady / SetInterest) every readiness bit it is
// interested in — a bit left both ready and interesting re-dispatches
// immediately and the selector will spin, exactly as a real NIO event loop
// would.
func (s *Selector) Select(handler func(keys []*SelectionKey)) {
	s.handler = handler
	s.pump()
}

// takeReady moves the queued keys, in registration order, into the turn
// slice and clears the pending set. The slice is reused by the next turn.
func (s *Selector) takeReady() []*SelectionKey {
	s.turn = s.turn[:0]
	if s.queued == 0 {
		return nil
	}
	for _, k := range s.keys {
		if k.queued {
			k.queued = false
			s.turn = append(s.turn, k)
		}
	}
	s.queued = 0
	return s.turn
}

// enqueue marks a key ready and schedules a dispatch batch.
func (s *Selector) enqueue(k *SelectionKey) {
	if k.canceled {
		return
	}
	if !k.queued {
		k.queued = true
		s.queued++
	}
	s.pump()
}

func (s *Selector) pump() {
	if s.handler == nil || s.dispatch || s.queued == 0 {
		return
	}
	s.dispatch = true
	// The epoll_wait return + key scan cost of the Java selector.
	params := s.stack.Node().Network().Params()
	s.stack.Node().CPU.Acquire(model.Dispatch, params.Selector.NIODispatch, s.dispatchFn)
}

// dispatchTurn is one select turn: the handler sees the keys queued so far;
// what it makes ready is queued for the next turn.
func (s *Selector) dispatchTurn() {
	s.dispatch = false
	keys := s.takeReady()
	if len(keys) == 0 || s.handler == nil {
		return
	}
	s.wakeups++
	s.handler(keys)
	// Keys whose readiness was not consumed re-enter the set.
	for _, k := range keys {
		if k.ready&k.interest != 0 {
			s.enqueue(k)
		}
	}
}

// SelectionKey ties a channel to a selector with an interest set.
type SelectionKey struct {
	sel        *Selector
	ch         Channel
	interest   InterestOps
	ready      InterestOps
	attachment any
	canceled   bool
	queued     bool // in the selector's ready set
}

// Channel returns the registered channel.
func (k *SelectionKey) Channel() Channel { return k.ch }

// Attachment returns the object attached at registration.
func (k *SelectionKey) Attachment() any { return k.attachment }

// SetInterest replaces the interest set, re-evaluating readiness.
func (k *SelectionKey) SetInterest(ops InterestOps) {
	k.interest = ops
	if r := k.ch.readiness() & ops; r != 0 {
		k.ready |= r
		k.sel.enqueue(k)
	}
}

// Ready returns the bits currently ready on this key.
func (k *SelectionKey) Ready() InterestOps { return k.ready }

// ResetReady clears readiness bits after the application has handled them.
func (k *SelectionKey) ResetReady(ops InterestOps) { k.ready &^= ops }

// Cancel removes the key from its selector.
func (k *SelectionKey) Cancel() {
	if k.canceled {
		return
	}
	k.canceled = true
	if k.queued {
		k.queued = false
		k.sel.queued--
	}
	for i, other := range k.sel.keys {
		if other == k {
			k.sel.keys = append(k.sel.keys[:i], k.sel.keys[i+1:]...)
			break
		}
	}
}

// signal is called by channels when an event makes bits ready.
func (k *SelectionKey) signal(ops InterestOps) {
	if k == nil || k.canceled {
		return
	}
	if r := ops & k.interest; r != 0 {
		k.ready |= r
		k.sel.enqueue(k)
	}
}

// ServerSocketChannel accepts inbound connections, queueing them until the
// application calls Accept.
type ServerSocketChannel struct {
	backlog sim.Queue[*tcpsim.Conn]
	key     *SelectionKey
}

// ListenSocket opens a listening server socket channel on the stack.
func ListenSocket(stack *tcpsim.Stack, port int) (*ServerSocketChannel, error) {
	ssc := &ServerSocketChannel{}
	_, err := stack.Listen(port, func(c *tcpsim.Conn) {
		ssc.backlog.Push(c)
		ssc.key.signal(OpAccept)
	})
	if err != nil {
		return nil, err
	}
	return ssc, nil
}

func (ssc *ServerSocketChannel) bind(k *SelectionKey) { ssc.key = k }

func (ssc *ServerSocketChannel) readiness() InterestOps {
	if ssc.backlog.Len() > 0 {
		return OpAccept
	}
	return 0
}

// Accept dequeues one established inbound connection as a SocketChannel,
// or nil if none is pending.
func (ssc *ServerSocketChannel) Accept() *SocketChannel {
	if ssc.backlog.Len() == 0 {
		if ssc.key != nil {
			ssc.key.ResetReady(OpAccept)
		}
		return nil
	}
	conn := ssc.backlog.Pop()
	if ssc.backlog.Len() == 0 && ssc.key != nil {
		ssc.key.ResetReady(OpAccept)
	}
	return WrapConn(conn)
}

// SocketChannel is a non-blocking byte-stream channel over one TCP
// connection.
type SocketChannel struct {
	conn   *tcpsim.Conn
	key    *SelectionKey
	closed bool
}

// WrapConn adapts an established TCP connection (accepted, or from a Dial
// callback) into a socket channel, binding the connection's callbacks
// (set-up, so closures).
func WrapConn(conn *tcpsim.Conn) *SocketChannel {
	sc := &SocketChannel{conn: conn}
	conn.OnReadable(func() { sc.key.signal(OpRead) })
	conn.OnWritable(func() { sc.key.signal(OpWrite) })
	conn.OnClose(func() {
		sc.closed = true
		// A closed peer manifests as readability (read returns error).
		sc.key.signal(OpRead)
	})
	return sc
}

func (sc *SocketChannel) bind(k *SelectionKey) { sc.key = k }

func (sc *SocketChannel) readiness() InterestOps {
	var r InterestOps
	if sc.conn.Readable() > 0 || sc.closed {
		r |= OpRead
	}
	if sc.conn.WritableSpace() > 0 {
		r |= OpWrite
	}
	return r
}

// Read copies available bytes into p (0 means would-block). Draining the
// buffer clears OpRead readiness.
func (sc *SocketChannel) Read(p []byte) (int, error) {
	n, err := sc.conn.Read(p)
	if sc.conn.Readable() == 0 && sc.key != nil && !sc.closed {
		sc.key.ResetReady(OpRead)
	}
	return n, err
}

// Readable returns the bytes immediately available.
func (sc *SocketChannel) Readable() int { return sc.conn.Readable() }

// Conn exposes the underlying simulated TCP connection.
func (sc *SocketChannel) Conn() *tcpsim.Conn { return sc.conn }

// Closed reports whether the channel has been closed (locally or by peer).
func (sc *SocketChannel) Closed() bool { return sc.closed }

// Close closes the channel and cancels its key.
func (sc *SocketChannel) Close() {
	sc.closed = true
	sc.conn.Close()
	if sc.key != nil {
		sc.key.Cancel()
	}
}
