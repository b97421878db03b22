// Package msgnet is the peer-oriented messaging layer between the BFT
// protocol code and the raw transport backends — the boundary the paper
// describes in Section III, widened so the protocol keeps its promises
// under load. A per-node Mesh owns the dial/accept lifecycle over either
// backend (tcp-nio or rdma-rubin); per-peer handles expose class-tagged
// sends whose failures are never silent (every error is returned or
// reported through OnSendError and counted).
//
// Messages larger than the transport's MaxMessage are fragmented
// transparently into digest-chained chunks and reassembled at the
// receiver, so multi-megabyte state snapshots and aggregated view-change
// proofs traverse the same API as a 100-byte PREPARE. Small messages go
// the other way: the whole messages already queued to a peer in one class
// when the scheduler runs travel as one bundle frame of up to 4 KiB, so a
// burst of votes, requests and replies costs the transport below one work
// request, one completion and one handler dispatch rather than one each;
// nothing waits for company. The scheduler runs on the simulation loop
// and round-robins traffic classes, so a bulk
// transfer cannot head-of-line-block latency-critical agreement traffic
// beyond the substrate's own queues; bounded per-peer send queues with
// high/low watermarks surface backpressure through ErrBacklog and
// OnWritable, and queue depths are observable for the bench layer.
//
// Protocol code (pbft, and the shard layer above it) talks only to this
// package; transport.Conn remains the substrate underneath.
package msgnet

import (
	"errors"
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// Errors returned by msgnet operations. Every error return is also
// counted on the peer (SendErrors), so no delivery failure is silent even
// if a caller mishandles the return.
var (
	ErrClosed  = errors.New("msgnet: peer closed")
	ErrBacklog = errors.New("msgnet: send queue above high watermark")
	ErrTooBig  = errors.New("msgnet: message exceeds MaxTransfer")
)

// Class tags traffic so the per-peer scheduler can interleave fairly:
// frames are released round-robin across classes, bounding how long a
// huge transfer in one class can delay another class's next frame.
type Class uint8

// The two traffic classes of the BFT workload.
const (
	// ClassControl is latency-critical agreement traffic (pre-prepare,
	// prepare, commit, checkpoints, view changes, client requests).
	ClassControl Class = iota
	// ClassBulk is throughput traffic that may be arbitrarily large
	// (state-transfer snapshots).
	ClassBulk

	numClasses = 2
)

func (c Class) String() string {
	switch c {
	case ClassControl:
		return "control"
	case ClassBulk:
		return "bulk"
	default:
		return fmt.Sprintf("class(%d)", uint8(c))
	}
}

// Options tunes a Mesh.
type Options struct {
	// Transport configures the underlying stack (batching, MaxMessage,
	// WR pool depth).
	Transport transport.Options
	// MaxQueueBytes is the per-peer high watermark: Send on a non-empty
	// queue fails with ErrBacklog once this many bytes are queued. An
	// empty queue always accepts one message of any size (up to
	// MaxTransfer), so progress is never wedged by the bound.
	MaxQueueBytes int
	// LowWaterBytes is the matching low watermark: after a Send has been
	// rejected, OnWritable fires once the queue drains to or below it.
	LowWaterBytes int
	// Burst is how many frames the scheduler releases to the substrate
	// per turn before yielding (a bundle is one frame) — together with
	// SubstrateBacklog it bounds head-of-line blocking across classes.
	Burst int
	// SubstrateBacklog pauses the scheduler while the transport reports
	// at least this many unsent messages; pumping resumes on the
	// connection's drain edge.
	SubstrateBacklog int
	// MaxTransfer caps one logical message before chunking — a sanity
	// bound, not a transport limit.
	MaxTransfer int
}

// DefaultOptions returns the configuration used by the experiments: the
// default transport options plus queue bounds generous enough that only a
// genuinely overloaded sender observes backpressure.
func DefaultOptions() Options {
	return Options{
		Transport:        transport.DefaultOptions(),
		MaxQueueBytes:    16 << 20,
		LowWaterBytes:    4 << 20,
		Burst:            4,
		SubstrateBacklog: 4,
		MaxTransfer:      64 << 20,
	}
}

func (o Options) validate() error {
	if o.MaxQueueBytes < 1 || o.LowWaterBytes < 0 || o.LowWaterBytes >= o.MaxQueueBytes {
		return fmt.Errorf("msgnet: invalid watermarks low=%d high=%d", o.LowWaterBytes, o.MaxQueueBytes)
	}
	if o.Burst < 1 || o.SubstrateBacklog < 1 || o.MaxTransfer < 1 {
		return fmt.Errorf("msgnet: invalid options %+v", o)
	}
	if o.Transport.MaxMessage <= chunkHeaderLen {
		return fmt.Errorf("msgnet: MaxMessage %d cannot carry a chunk header (%d bytes)",
			o.Transport.MaxMessage, chunkHeaderLen)
	}
	return nil
}

// chunkPayload is the application bytes carried per chunk frame.
func (o Options) chunkPayload() int { return o.Transport.MaxMessage - chunkHeaderLen }

// maxWhole is the largest message that still fits one unchunked frame.
func (o Options) maxWhole() int { return o.Transport.MaxMessage - wholeHeaderLen }

// Mesh owns one node's messaging endpoint: the transport stack plus every
// peer handle created by Dial or accepted by Listen. It is the unit the
// cluster orchestration holds on to across replica restarts — peers
// survive a replica crash and are re-attached (or re-dialed) on recovery.
// When the node's world has a tracer with span recording on, peers emit a
// "sendq" span for every message that waited in a class queue before
// reaching the wire.
type Mesh struct {
	node  *fabric.Node
	stack transport.Stack
	opts  Options
	peers []*Peer

	// The node's stat-table cells this mesh's peers bump: surfaced send
	// failures, rejected inbound frames, deepest send queue of any peer.
	sendErrs, recvErrs, peakQueue *uint64

	// Free lists shared by this mesh's peers: frame buffers classed by
	// power-of-two capacity (see pool.go), and send-queue items, each
	// zeroed before it goes back.
	bufFree [bufClasses][][]byte
	items   sim.FreeList[outItem]
}

// NewMesh opens a messaging endpoint of the requested backend kind on a
// node.
func NewMesh(kind transport.Kind, node *fabric.Node, opts Options) (*Mesh, error) {
	meshes, err := NewMeshes(kind, node, opts, 1)
	if err != nil {
		return nil, err
	}
	return meshes[0], nil
}

// NewMeshes opens n messaging endpoints on a node — a replica host's peer
// and client meshes, two per pillar: each over a transport stack of its
// own, on the node's application thread of its index (transport.NewStacks).
func NewMeshes(kind transport.Kind, node *fabric.Node, opts Options, n int) ([]*Mesh, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	stacks, err := transport.NewStacks(kind, node, opts.Transport, n)
	if err != nil {
		return nil, err
	}
	meshes := make([]*Mesh, n)
	for k, stack := range stacks {
		meshes[k] = newMesh(node, stack, opts)
	}
	node.Gauge("msgnet_queue_bytes", fabric.StatLevel, func() float64 {
		n := 0
		for _, m := range meshes {
			n += m.QueueBytes()
		}
		return float64(n)
	})
	return meshes, nil
}

// newMesh registers the mesh's stat cells on its node.
func newMesh(node *fabric.Node, stack transport.Stack, opts Options) *Mesh {
	return &Mesh{node: node, stack: stack, opts: opts,
		sendErrs:  node.Counter("msgnet.send_errors"),
		recvErrs:  node.Counter("msgnet.recv_errors"),
		peakQueue: node.Peak("msgnet.peak_queue_bytes"),
	}
}

// Node returns the fabric node this mesh runs on.
func (m *Mesh) Node() *fabric.Node { return m.node }

// Listen accepts inbound peers on a port.
func (m *Mesh) Listen(port int, accept func(*Peer)) error {
	return m.stack.Listen(port, func(conn transport.Conn) {
		p := m.wrap(conn)
		if accept != nil {
			accept(p)
		}
	})
}

// Dial connects to a port on a remote node. The done callback receives
// either a live peer handle or the dial error — errors are the caller's
// to surface (Cluster.Restart records them for chaos scenarios).
func (m *Mesh) Dial(remote *fabric.Node, port int, done func(*Peer, error)) {
	m.stack.Dial(remote, port, func(conn transport.Conn, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(m.wrap(conn), nil)
	})
}

// QueueBytes returns the bytes currently waiting in the send queues of
// all peers — the instantaneous counterpart of msgnet.peak_queue_bytes;
// summed over a node's meshes, it is the msgnet_queue_bytes level traced
// runs sample.
func (m *Mesh) QueueBytes() int {
	n := 0
	for _, p := range m.peers {
		n += p.queueBytes
	}
	return n
}

// SendErrors returns the send failures surfaced by this mesh's peers.
func (m *Mesh) SendErrors() uint64 { return *m.sendErrs }

func (m *Mesh) wrap(conn transport.Conn) *Peer {
	p := &Peer{
		mesh:    m,
		conn:    conn,
		streams: make(map[uint64]*inStream),
	}
	p.pumpFn = p.pump
	conn.OnMessage(p.dispatch)
	conn.OnClose(p.connClosed)
	conn.OnDrain(p.substrateDrained)
	m.peers = append(m.peers, p)
	return p
}
