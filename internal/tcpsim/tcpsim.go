// Package tcpsim simulates a kernel TCP/IP stack with the cost structure
// the paper attributes to it: per-call syscall crossings, user<->kernel
// buffer copies, per-MTU-segment protocol processing, interrupts, and
// scheduler wakeups — the calls charged to the application thread that
// makes them, the kernel's work to the node's CPU. This is the baseline
// that RDMA's kernel bypass and zero copy eliminate.
//
// The API is non-blocking and event-driven (the simulator has no blocked
// goroutines): Read and Write transfer whatever is possible immediately and
// return short counts otherwise, and OnReadable/OnWritable callbacks signal
// readiness transitions. Package transport's TCP backend builds a
// Java-NIO-style selector on top of these callbacks.
//
// Delivery relies on the fabric's in-order per-direction links, so no
// retransmission logic is modeled; flow control (socket-buffer windows) is.
package tcpsim

import (
	"errors"
	"fmt"
	"slices"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
)

// Errors returned by connection operations.
var (
	ErrClosed     = errors.New("tcpsim: connection closed")
	ErrPortInUse  = errors.New("tcpsim: port already in use")
	ErrNoListener = errors.New("tcpsim: connection refused")
)

const headerWireBytes = 60 // control segment size on the wire

// Stack is the per-node TCP instance as one application thread sees it:
// the kernel state is the node's, and the syscalls of the sockets opened or
// accepted through this Stack are served on its thread. Create one per
// fabric node; On gives another thread of the node its own view.
type Stack struct {
	*kernel
	thread *sim.Resource
}

// kernel is the node's TCP state, shared by every view of its stack.
type kernel struct {
	node      *fabric.Node
	params    model.Params
	listeners map[int]*Listener
	conns     map[connID]*Conn
	nextPort  int

	// Interrupt coalescing: segments arriving while the receive softirq
	// is active are drained in the same batch without a fresh interrupt
	// charge. rxActive admits one segment at a time, so the one being
	// processed is a field (rxCur) and the two stage callbacks are bound
	// once.
	rxQueue   sim.Queue[rxSegment]
	rxActive  bool
	rxCur     rxSegment
	drainRxFn func() // s.drainRx
	rxDoneFn  func() // s.rxDone

	// segments recycles the segments this stack sends. The receiving stack
	// puts each back once handleSegment has returned (rxDone); one on a
	// dropped frame never comes home and is ordinary garbage.
	segments sim.FreeList[segment]
}

// rxSegment is a received segment waiting for the softirq, with its sender.
type rxSegment struct {
	seg  *segment
	from *fabric.Node
}

type connID struct {
	peer       *fabric.Node
	localPort  int
	remotePort int
}

// segment is the unit carried over the fabric: a recycled record that owns
// its payload storage (at most one MTU), so nothing on the wire aliases a
// socket buffer.
type segment struct {
	kind     segKind
	srcPort  int
	dstPort  int
	payload  []byte
	consumed int    // windowUpdate: bytes the peer application consumed
	home     *Stack // the sender, whose free list the record returns to
}

type segKind uint8

const (
	segSYN segKind = iota + 1
	segSYNACK
	segRST
	segDATA
	segWINDOW
	segFIN
)

// NewStack creates the TCP stack on a node and registers it for ProtoTCP
// frames. A node can host at most one stack.
func NewStack(node *fabric.Node) *Stack {
	s := &Stack{&kernel{
		node:      node,
		params:    node.Network().Params(),
		listeners: make(map[int]*Listener),
		conns:     make(map[connID]*Conn),
		nextPort:  49152,
	}, node.App}
	s.drainRxFn, s.rxDoneFn = s.drainRx, s.rxDone
	node.Register(fabric.ProtoTCP, s.deliver)
	return s
}

// On returns the stack as another application thread of its node
// (fabric.Node.Thread) sees it: the same ports, connections and kernel
// work, but the sockets opened or accepted through it make their syscalls
// on thread — a COP pillar's.
func (s *Stack) On(thread *sim.Resource) *Stack { return &Stack{s.kernel, thread} }

// Node returns the fabric node this stack runs on.
func (s *Stack) Node() *fabric.Node { return s.node }

// Thread returns the application thread this view's sockets make their
// syscalls on.
func (s *Stack) Thread() *sim.Resource { return s.thread }

func (s *Stack) loop() *sim.Loop { return s.node.Loop() }

// Listen opens a listening port. onAccept runs for every established
// inbound connection.
func (s *Stack) Listen(port int, onAccept func(*Conn)) (*Listener, error) {
	if _, used := s.listeners[port]; used {
		return nil, fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	l := &Listener{stack: s, onAccept: onAccept}
	s.listeners[port] = l
	return l, nil
}

// Dial opens a connection to port on the remote node. done is called once
// the three-way handshake completes (or fails).
func (s *Stack) Dial(remote *fabric.Node, port int, done func(*Conn, error)) {
	local := s.nextPort
	s.nextPort++
	c := s.newConn(remote, local, port)
	c.state = stateSYNSent
	c.onDialed = done
	s.conns[c.id()] = c
	// Connection setup costs one syscall plus the handshake round trip
	// (set-up, like the handshake and teardown's onClose post: a closure).
	s.thread.Acquire(model.ConnSetup, s.params.TCP.SendSyscall, func() {
		c.sendControl(segSYN)
	})
}

// Listener accepts inbound connections on a port, onto the thread of the
// stack view that opened it.
type Listener struct {
	stack    *Stack
	onAccept func(*Conn)
}

type connState uint8

const (
	stateSYNSent connState = iota + 1
	stateEstablished
	stateClosed
)

// Conn is one TCP connection endpoint.
type Conn struct {
	stack      *Stack
	remote     *fabric.Node
	localPort  int
	remotePort int
	state      connState

	onDialed   func(*Conn, error)
	onReadable func()
	onWritable func()
	onClose    func()

	// Send side: sendBuf is the kernel send buffer, the bytes accepted
	// from the application but not yet permitted onto the wire by the
	// peer's advertised window. writes holds the size of every Write still
	// in it, oldest first (a segment never spans two): the first served
	// have had their syscall cost served and wait for window, the rest are
	// on the app thread — a FIFO server, so writeDone needs no operand.
	sendBuf     ring
	writes      sim.Queue[int]
	served      int
	writeDoneFn func() // c.writeDone
	inFlight    int    // bytes on the wire not yet consumed by the peer app

	// Receive side: the kernel socket buffer, and the byte count of every
	// Read whose syscall cost is being served, for readDone to advertise.
	recvBuf    ring
	reads      sim.Queue[int]
	readDoneFn func() // c.readDone
	notifyArm  bool   // a readable wakeup is already scheduled
	notifyFn   func() // c.notify
	writeBlock bool   // application hit a zero window and awaits OnWritable
}

func (s *Stack) newConn(remote *fabric.Node, localPort, remotePort int) *Conn {
	c := &Conn{
		stack:      s,
		remote:     remote,
		localPort:  localPort,
		remotePort: remotePort,
	}
	c.writeDoneFn, c.readDoneFn, c.notifyFn = c.writeDone, c.readDone, c.notify
	return c
}

func (c *Conn) id() connID {
	return connID{peer: c.remote, localPort: c.localPort, remotePort: c.remotePort}
}

// LocalNode returns the node this endpoint lives on.
func (c *Conn) LocalNode() *fabric.Node { return c.stack.node }

// RemoteNode returns the peer's node.
func (c *Conn) RemoteNode() *fabric.Node { return c.remote }

// Established reports whether the connection is open for data transfer.
func (c *Conn) Established() bool { return c.state == stateEstablished }

// OnReadable installs the callback invoked (after the modeled interrupt and
// wakeup latency) whenever the receive buffer transitions to non-empty.
func (c *Conn) OnReadable(fn func()) { c.onReadable = fn }

// OnWritable installs the callback invoked when send-buffer space frees up
// after a Write returned a short count.
func (c *Conn) OnWritable(fn func()) { c.onWritable = fn }

// OnClose installs the callback invoked when the peer closes or resets.
func (c *Conn) OnClose(fn func()) { c.onClose = fn }

// Readable returns the number of bytes immediately available to Read.
func (c *Conn) Readable() int { return c.recvBuf.Len() }

// WritableSpace returns how many bytes Write would currently accept.
func (c *Conn) WritableSpace() int {
	return max(0, c.stack.params.TCP.SocketBuffer-c.sendBuf.Len()-c.inFlight)
}

// Write queues up to len(p) bytes for transmission and returns how many
// were accepted (non-blocking). The syscall, user-to-kernel copy and
// per-segment processing costs are charged to the app thread; bytes enter the
// wire once those costs have been served and the flow-control window
// permits.
func (c *Conn) Write(p []byte) (int, error) {
	if c.state != stateEstablished {
		return 0, ErrClosed
	}
	n := len(p)
	if space := c.WritableSpace(); n > space {
		n = space
	}
	if n == 0 {
		c.writeBlock = true
		return 0, nil
	}
	c.sendBuf.Write(p[:n], c.stack.params.TCP.SocketBuffer)
	c.writes.Push(n)
	tp := c.stack.params.TCP
	cost := tp.SendSyscall + model.KB(tp.CopyPerKB, n) +
		tp.SegmentProc*sim.Time(c.stack.params.Link.Frames(n))
	c.stack.thread.Acquire(model.SocketWrite, cost, c.writeDoneFn)
	return n, nil
}

// writeDone runs when the oldest Write still on the app thread has been
// served: its bytes may now enter the wire.
func (c *Conn) writeDone() {
	c.served++
	c.pump()
}

// pump moves served bytes onto the wire as MTU segments while the peer's
// advertised window has room.
func (c *Conn) pump() {
	if c.state != stateEstablished {
		return
	}
	mtu := c.stack.params.Link.MTU
	for c.served > 0 {
		window := c.stack.params.TCP.SocketBuffer - c.inFlight
		if window <= 0 {
			return
		}
		head := c.writes.Front()
		n := min(*head, mtu, window)
		if n == *head {
			c.writes.Pop()
			c.served--
		} else {
			*head -= n
		}
		c.inFlight += n
		seg := c.segment(segDATA)
		seg.payload = slices.Grow(seg.payload, n)[:n]
		c.sendBuf.Read(seg.payload)
		c.send(seg, n)
	}
}

// Read copies up to len(p) bytes out of the receive buffer, returning the
// count (0 means would-block). The syscall and kernel-to-user copy are
// charged to the app thread; the window update advertising freed space is sent
// once that charge has been served.
func (c *Conn) Read(p []byte) (int, error) {
	if c.state == stateClosed && c.recvBuf.Len() == 0 {
		return 0, ErrClosed
	}
	n := c.recvBuf.Read(p)
	if n == 0 {
		return 0, nil
	}
	c.reads.Push(n)
	tp := c.stack.params.TCP
	c.stack.thread.Acquire(model.SocketRead, tp.RecvSyscall+model.KB(tp.CopyPerKB, n), c.readDoneFn)
	return n, nil
}

// readDone runs when the oldest Read still on the app thread has been
// served.
func (c *Conn) readDone() {
	n := c.reads.Pop()
	if c.state == stateEstablished {
		seg := c.segment(segWINDOW)
		seg.consumed = n
		c.send(seg, 0)
	}
}

// Close shuts the connection down and notifies the peer.
func (c *Conn) Close() {
	if c.state == stateClosed {
		return
	}
	if c.state == stateEstablished {
		c.sendControl(segFIN)
	}
	c.teardown()
}

func (c *Conn) teardown() {
	if c.state == stateClosed {
		return
	}
	c.state = stateClosed
	delete(c.stack.conns, c.id())
	if c.onClose != nil {
		cb := c.onClose
		c.stack.loop().Post(cb)
	}
}

func (c *Conn) sendControl(kind segKind) { c.send(c.segment(kind), 0) }

func (c *Conn) segment(kind segKind) *segment {
	return c.stack.segment(kind, c.localPort, c.remotePort)
}

// segment takes a record off the stack's free list, empty but keeping its
// payload storage.
func (s *Stack) segment(kind segKind, srcPort, dstPort int) *segment {
	seg := s.segments.Get()
	*seg = segment{kind: kind, srcPort: srcPort, dstPort: dstPort, payload: seg.payload[:0], home: s}
	return seg
}

func (c *Conn) send(seg *segment, payloadBytes int) {
	wire := payloadBytes
	if wire == 0 {
		wire = headerWireBytes
	}
	// Fabric errors (no link / no stack on peer) surface as a reset.
	if err := c.stack.node.Network().Send(c.stack.node, c.remote, fabric.ProtoTCP, seg, wire); err != nil {
		c.teardown()
	}
}

// deliver is the fabric handler: it models interrupt coalescing, then
// per-segment kernel processing, then hands data to connections.
func (s *Stack) deliver(from *fabric.Node, payload any, wireBytes int) {
	seg, ok := payload.(*segment)
	if !ok {
		return
	}
	s.rxQueue.Push(rxSegment{seg, from})
	if s.rxActive {
		return
	}
	s.rxActive = true
	s.node.CPU.Acquire(model.Interrupt, s.params.TCP.Interrupt, s.drainRxFn)
}

func (s *Stack) drainRx() {
	if s.rxQueue.Len() == 0 {
		s.rxActive = false
		return
	}
	s.rxCur = s.rxQueue.Pop()
	s.node.CPU.Acquire(model.Segment, s.params.TCP.SegmentProc, s.rxDoneFn)
}

// rxDone handles the segment whose processing cost has been served and
// sends the record home: the one release point, whatever handleSegment did.
func (s *Stack) rxDone() {
	seg := s.rxCur.seg
	s.handleSegment(s.rxCur.from, seg)
	seg.home.segments.Put(seg)
	s.drainRx()
}

func (s *Stack) handleSegment(from *fabric.Node, seg *segment) {
	if seg.kind == segSYN {
		l := s.listeners[seg.dstPort]
		if l == nil {
			reply := s.segment(segRST, seg.dstPort, seg.srcPort)
			_ = s.node.Network().Send(s.node, from, fabric.ProtoTCP, reply, headerWireBytes)
			return
		}
		c := l.stack.newConn(from, seg.dstPort, seg.srcPort)
		c.state = stateEstablished
		s.conns[c.id()] = c
		c.sendControl(segSYNACK)
		if l.onAccept != nil {
			l.onAccept(c)
		}
		return
	}
	c := s.conns[connID{peer: from, localPort: seg.dstPort, remotePort: seg.srcPort}]
	if c == nil {
		return
	}
	switch seg.kind {
	case segSYNACK:
		if c.state != stateSYNSent {
			return
		}
		c.state = stateEstablished
		if c.onDialed != nil {
			done := c.onDialed
			c.onDialed = nil
			done(c, nil)
		}
	case segRST:
		if c.onDialed != nil {
			done := c.onDialed
			c.onDialed = nil
			delete(s.conns, c.id())
			c.state = stateClosed
			done(nil, ErrNoListener)
			return
		}
		c.teardown()
	case segDATA:
		if c.state != stateEstablished {
			return
		}
		c.recvBuf.Write(seg.payload, c.stack.params.TCP.SocketBuffer)
		c.notifyReadable()
	case segWINDOW:
		if c.state != stateEstablished {
			return
		}
		c.inFlight -= seg.consumed
		if c.inFlight < 0 {
			c.inFlight = 0
		}
		c.pump()
		if c.writeBlock && c.WritableSpace() > 0 && c.onWritable != nil {
			c.writeBlock = false
			c.onWritable()
		}
	case segFIN:
		c.teardown()
	}
}

// notifyReadable schedules the application wakeup (at most one outstanding).
func (c *Conn) notifyReadable() {
	if c.onReadable == nil || c.notifyArm {
		return
	}
	c.notifyArm = true
	c.stack.node.CPU.Acquire(model.Wakeup, c.stack.params.TCP.Wakeup, c.notifyFn)
}

func (c *Conn) notify() {
	c.notifyArm = false
	if c.onReadable != nil && c.recvBuf.Len() > 0 {
		c.onReadable()
	}
}
