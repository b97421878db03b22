// Package fabric simulates the physical cluster: hosts with CPU and NIC
// resources connected by full-duplex point-to-point links.
//
// The fabric is deliberately protocol-agnostic: it serializes opaque
// payloads onto a link direction (FIFO, so delivery is in order per
// direction), applies propagation delay, and hands frames to the protocol
// handler registered at the destination node. The TCP and RDMA stacks on
// top charge their own CPU/NIC costs before and after using the wire, which
// keeps the comparison between stacks honest: both see the same link.
//
// Links additionally carry the per-link fault state the chaos subsystem
// drives (LinkFaults: loss, added latency, jitter, down). A downed link
// holds frames and releases them in their original order on heal — a
// partition is modeled as an unbounded message delay, never as loss — so
// the loss-free simulated transports survive partition/heal cycles intact.
package fabric

import (
	"fmt"

	"rubin/internal/model"
	"rubin/internal/obs"
	"rubin/internal/sim"
)

// Protocol identifies which stack a frame belongs to; nodes register one
// handler per protocol.
type Protocol uint8

// Protocols multiplexed over the fabric.
const (
	ProtoTCP Protocol = iota + 1
	ProtoRDMA
)

func (p Protocol) String() string {
	switch p {
	case ProtoTCP:
		return "tcp"
	case ProtoRDMA:
		return "rdma"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// Handler receives frames delivered to a node.
type Handler func(from *Node, payload any, wireBytes int)

// DropFunc inspects a frame about to enter a link direction and reports
// whether to drop it (fault injection). A nil DropFunc drops nothing.
type DropFunc func(from, to *Node, payload any, wireBytes int) bool

// Network is a set of nodes and links sharing one simulation loop and one
// parameter set.
type Network struct {
	loop   *sim.Loop
	params model.Params
	nodes  map[string]*Node
	order  []*Node // nodes in creation order
	tracer *obs.Tracer

	frames sim.FreeList[frame] // delivered frames' records
}

// New creates an empty network on the given loop.
func New(loop *sim.Loop, params model.Params) *Network {
	return &Network{
		loop:   loop,
		params: params,
		nodes:  make(map[string]*Node),
	}
}

// Params returns the network's parameter set.
func (nw *Network) Params() model.Params { return nw.params }

// SetTracer gives the simulated world its observability tracer: every
// layer holding a Node reads it through Tracer, so components that join
// later are traced without re-attachment. Nil (the default) disables it.
func (nw *Network) SetTracer(t *obs.Tracer) { nw.tracer = t }

// Tracer returns the world's tracer, nil when observability is off.
func (nw *Network) Tracer() *obs.Tracer { return nw.tracer }

// AddNode creates a node with the configured CPU core and NIC engine
// counts and its one application thread. Node names must be unique.
func (nw *Network) AddNode(name string) *Node {
	if _, dup := nw.nodes[name]; dup {
		panic(fmt.Sprintf("fabric: duplicate node %q", name))
	}
	n := &Node{
		name: name,
		id:   len(nw.nodes),
		net:  nw,
		CPU:  sim.NewResource(nw.loop, name+"/cpu", nw.params.Host.Cores),
		NIC:  sim.NewResource(nw.loop, name+"/nic", nw.params.Host.NICEngines),
		App:  sim.NewResource(nw.loop, name+"/app", 1),
	}
	n.Gauge("cpu_util", StatLevel, n.CPU.Utilization)
	n.Gauge("app_util", StatLevel, n.App.Utilization)
	n.Gauge("nic_util", StatLevel, n.NIC.Utilization)
	nw.nodes[name] = n
	nw.order = append(nw.order, n)
	return n
}

// Node returns the named node, or nil if absent.
func (nw *Network) Node(name string) *Node { return nw.nodes[name] }

// Nodes returns every node in creation order.
func (nw *Network) Nodes() []*Node { return nw.order }

// Connect creates (or returns the existing) full-duplex link between two
// nodes using the network's link parameters.
func (nw *Network) Connect(a, b *Node) *Link {
	if a == b {
		panic("fabric: cannot link a node to itself")
	}
	if l := nw.Link(a, b); l != nil {
		return l
	}
	l := &Link{
		net:    nw,
		a:      a,
		b:      b,
		params: nw.params.Link,
		ab:     sim.NewResource(nw.loop, a.name+"->"+b.name, 1),
		ba:     sim.NewResource(nw.loop, b.name+"->"+a.name, 1),
	}
	a.setLink(b, l)
	b.setLink(a, l)
	return l
}

// Link returns the link between two nodes, or nil if they are not connected.
func (nw *Network) Link(a, b *Node) *Link {
	if b.id < len(a.links) {
		return a.links[b.id]
	}
	return nil
}

// Send serializes a payload onto the link from one node to another and
// schedules delivery to the destination's protocol handler. wireBytes is
// the size charged on the wire (payload plus protocol framing). It returns
// an error if the nodes are not connected or the destination has no handler
// for the protocol.
func (nw *Network) Send(from, to *Node, proto Protocol, payload any, wireBytes int) error {
	link := nw.Link(from, to)
	if link == nil {
		return fmt.Errorf("fabric: no link %s -> %s", from.name, to.name)
	}
	if int(proto) >= len(to.handlers) || to.handlers[proto] == nil {
		return fmt.Errorf("fabric: node %s has no %v handler", to.name, proto)
	}
	link.transmit(from, to, proto, payload, wireBytes)
	return nil
}

// Node is one simulated host.
type Node struct {
	name string
	id   int // position in the network's creation order; indexes links
	net  *Network

	// CPU is the host processor (Cores parallel servers). Kernel work —
	// interrupts, segment processing, connection set-up, memory
	// registration — the NIO selector's dispatch and BFT logic are charged
	// here.
	CPU *sim.Resource

	// NIC is the RDMA NIC's processing/DMA engine pool. RDMA data-path
	// costs are charged here instead of the CPU: that asymmetry is the
	// kernel-bypass / zero-copy advantage.
	NIC *sim.Resource

	// App is the host's single application thread (one server), onto which
	// NIO and RUBIN both multiplex every connection (paper Section III):
	// socket syscalls, verbs posts, CQ polls and completion handling, receive
	// copies and per-message dispatch all queue here. Being one FIFO server,
	// it also guarantees that a connection's writes enter the send queue in
	// call order.
	App *sim.Resource

	handlers [ProtoRDMA + 1]Handler // by Protocol
	links    []*Link                // by peer id, filled by Connect; nil where unconnected
	stats    []stat                 // the stat table, in registration order (stats.go)
}

// Name returns the node's unique name.
func (n *Node) Name() string { return n.name }

// Network returns the network the node belongs to.
func (n *Node) Network() *Network { return n.net }

// Loop returns the simulation loop.
func (n *Node) Loop() *sim.Loop { return n.net.loop }

// Register installs the handler for a protocol, replacing any previous one.
func (n *Node) Register(proto Protocol, h Handler) {
	if h == nil {
		panic("fabric: nil handler")
	}
	n.handlers[proto] = h
}

func (n *Node) setLink(peer *Node, l *Link) {
	for len(n.links) <= peer.id {
		n.links = append(n.links, nil)
	}
	n.links[peer.id] = l
}

// LinkFaults is the injected fault state of one link (both directions).
// The zero value is a healthy link. All randomness (loss, jitter) is drawn
// from the simulation loop's seeded source, so fault behaviour is
// deterministic per seed.
type LinkFaults struct {
	// LossRate is the probability in [0,1] that a frame is silently
	// discarded before entering the wire. Note that the simulated stream
	// transports assume a reliable fabric (no retransmission is modeled),
	// so sustained loss on an established connection degrades it
	// permanently — use for raw-fabric experiments and datagram traffic.
	LossRate float64
	// ExtraLatency is added to every frame's propagation delay.
	ExtraLatency sim.Time
	// Jitter adds a uniformly distributed random delay in [0, Jitter) per
	// frame. Delivery remains FIFO per direction: a frame is never
	// delivered before one sent earlier on the same direction.
	Jitter sim.Time
	// Down severs the link: frames are held instead of transmitted and
	// are released in order when the link comes back up. This models a
	// network partition as an unbounded delay (the standard asynchronous
	// model), which keeps the loss-free stream transports above the
	// fabric intact across a heal.
	Down bool
}

// heldFrame is a frame queued while its link is down.
type heldFrame struct {
	from, to  *Node
	proto     Protocol
	payload   any
	wireBytes int
}

// frame is one frame on a link, from the start of serialization to the
// destination handler. Many are in flight at once, so unlike the one-job
// stages above the fabric its operands cannot be fields of its owner; the
// record is recycled through Network.frames, its two stage callbacks bound
// when it is first made, so a frame schedules its events without allocating.
type frame struct {
	link      *Link
	from, to  *Node
	proto     Protocol
	payload   any
	wireBytes int
	prop      sim.Time // propagation delay drawn at transmit time

	onWire, arrive func() // f.serialized and f.deliver, bound once
}

// serialized runs when the frame's last bit has left the sender: it
// schedules the arrival one propagation delay later.
func (f *frame) serialized() {
	loop := f.link.net.loop
	last := f.link.lastArrival(f.from)
	at := loop.Now() + f.prop
	if at < *last {
		at = *last // FIFO: never overtake an earlier frame
	}
	*last = at
	loop.At(at, f.arrive)
}

// deliver hands the frame to the destination's handler — after the record
// is back on the free list, as Loop.Step releases its event before the
// callback: the handler transmits from inside delivery (acks), and the
// frame it sends may be this very record.
func (f *frame) deliver() {
	nw := f.link.net
	from, to, proto, payload, wireBytes := f.from, f.to, f.proto, f.payload, f.wireBytes
	f.payload = nil
	nw.frames.Put(f)
	if h := to.handlers[proto]; h != nil {
		h(from, payload, wireBytes)
	}
}

// Link is a full-duplex point-to-point link.
type Link struct {
	net    *Network
	a, b   *Node
	params model.LinkParams
	ab, ba *sim.Resource // one serialization server per direction

	drop   DropFunc
	faults LinkFaults
	held   []heldFrame

	// lastArrival tracks the latest scheduled delivery time per direction
	// so jittered frames cannot overtake earlier ones.
	lastArrivalAB sim.Time
	lastArrivalBA sim.Time

	// Stats per link (both directions combined).
	frames  uint64
	bytes   uint64
	dropped uint64
}

// SetDrop installs a fault-injection predicate; frames for which it returns
// true vanish before entering the wire.
func (l *Link) SetDrop(fn DropFunc) { l.drop = fn }

// SetFaults replaces the link's fault state. Clearing Down releases all
// held frames, in their original order, through the then-current fault
// state (so a healed link delivers its backlog at normal link speed).
func (l *Link) SetFaults(f LinkFaults) {
	wasDown := l.faults.Down
	l.faults = f
	if wasDown && !f.Down {
		held := l.held
		l.held = nil
		for _, h := range held {
			l.transmit(h.from, h.to, h.proto, h.payload, h.wireBytes)
		}
	}
}

// SetDown severs or restores the link, preserving the other fault fields.
func (l *Link) SetDown(down bool) {
	f := l.faults
	f.Down = down
	l.SetFaults(f)
}

// Frames returns the number of frames transmitted.
func (l *Link) Frames() uint64 { return l.frames }

// Bytes returns the number of payload bytes transmitted.
func (l *Link) Bytes() uint64 { return l.bytes }

// Dropped returns the number of frames removed by fault injection.
func (l *Link) Dropped() uint64 { return l.dropped }

// Held returns the number of frames currently queued on a down link.
func (l *Link) Held() int { return len(l.held) }

func (l *Link) direction(from *Node) *sim.Resource {
	if from == l.a {
		return l.ab
	}
	return l.ba
}

func (l *Link) lastArrival(from *Node) *sim.Time {
	if from == l.a {
		return &l.lastArrivalAB
	}
	return &l.lastArrivalBA
}

func (l *Link) transmit(from, to *Node, proto Protocol, payload any, wireBytes int) {
	// Hold before consulting the DropFunc: held frames re-enter transmit
	// on heal, and each frame must face the predicate exactly once.
	if l.faults.Down {
		l.held = append(l.held, heldFrame{from, to, proto, payload, wireBytes})
		return
	}
	if l.drop != nil && l.drop(from, to, payload, wireBytes) {
		l.dropped++
		return
	}
	if l.faults.LossRate > 0 && l.net.loop.Rand().Float64() < l.faults.LossRate {
		l.dropped++
		return
	}
	l.frames++
	l.bytes += uint64(wireBytes)
	ser := l.params.SerializeTime(wireBytes)
	prop := l.params.Propagation + l.faults.ExtraLatency
	if l.faults.Jitter > 0 {
		prop += sim.Time(l.net.loop.Rand().Int63n(int64(l.faults.Jitter)))
	}
	f := l.net.frames.Get()
	if f.onWire == nil {
		f.onWire, f.arrive = f.serialized, f.deliver
	}
	f.link, f.from, f.to, f.proto = l, from, to, proto
	f.payload, f.wireBytes, f.prop = payload, wireBytes, prop
	l.direction(from).Acquire(ser, f.onWire)
}
