// Package rdma simulates an RDMA-capable NIC and the verbs programming
// model: protection domains, registered memory regions, reliable-connection
// queue pairs, work requests, completion queues with event notification,
// two-sided SEND/RECV, one-sided WRITE, inline sends, selective signaling,
// doorbell batching and receiver-not-ready (RNR) retry. One-sided READ is
// not modeled: nothing in the paper's evaluation posts one.
//
// The simulation charges data-path work to the NIC engine resource rather
// than the host — kernel bypass and zero copy are therefore structural,
// not just smaller constants: a SEND costs the host only the doorbell ring,
// while payload bytes move on the NIC's DMA engines. This is the property
// the paper exploits and the baseline TCP stack (package tcpsim) lacks.
// The host-side verbs work — posting, polling, completion handling — runs
// on the node's single application thread (fabric.Node.App); connection
// set-up and memory registration are kernel work on its CPU.
//
// Memory regions carry real bytes (backed on first touch, see MR) and
// one-sided writes are bounds- and access-checked against the remote key,
// so the security concerns of Section III-C (stray STag access, write
// races) are observable in tests.
package rdma

import (
	"errors"
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
)

// Errors returned by verbs calls.
var (
	ErrQPState      = errors.New("rdma: queue pair not in a usable state")
	ErrSendQueueFul = errors.New("rdma: send queue full")
	ErrRecvQueueFul = errors.New("rdma: receive queue full")
	ErrInlineTooBig = errors.New("rdma: inline payload exceeds limit")
	ErrBadMR        = errors.New("rdma: memory region invalid for request")
	ErrPortInUse    = errors.New("rdma: CM port already in use")
	ErrRejected     = errors.New("rdma: connection rejected")
	ErrCQOverrun    = errors.New("rdma: completion queue overrun")
)

// Access is the bitmask of permissions granted when registering memory.
type Access uint8

// Access flags; LocalWrite is required for receive buffers, RemoteWrite
// exposes the region to one-sided writes from the peer.
const (
	AccessLocalWrite Access = 1 << iota
	AccessRemoteWrite
)

// Opcode identifies the kind of work request.
type Opcode uint8

// Work request opcodes.
const (
	OpSend Opcode = iota + 1
	OpWrite
	OpRecv
)

func (o Opcode) String() string {
	switch o {
	case OpSend:
		return "SEND"
	case OpWrite:
		return "WRITE"
	case OpRecv:
		return "RECV"
	default:
		return fmt.Sprintf("op(%d)", uint8(o))
	}
}

// Status is the completion status of a work request.
type Status uint8

// Completion statuses.
const (
	StatusOK Status = iota
	StatusRNRRetryExceeded
	StatusRemoteAccess
	StatusRecvLengthErr
	StatusQPError
)

func (s Status) String() string {
	switch s {
	case StatusOK:
		return "OK"
	case StatusRNRRetryExceeded:
		return "RNR_RETRY_EXCEEDED"
	case StatusRemoteAccess:
		return "REMOTE_ACCESS_ERROR"
	case StatusRecvLengthErr:
		return "RECV_LENGTH_ERROR"
	case StatusQPError:
		return "QP_ERROR"
	default:
		return fmt.Sprintf("status(%d)", uint8(s))
	}
}

// CQE is a completion queue entry.
type CQE struct {
	WRID   uint64
	QPN    uint32
	Op     Opcode
	Status Status
	Bytes  int
}

// Device is the per-node RNIC instance.
type Device struct {
	node   *fabric.Node
	params model.Params

	nextQPN  uint32
	nextKey  uint32
	qps      map[uint32]*QP
	mrs      map[uint32]*MR // by rkey, for one-sided validation
	cmPorts  map[int]*cmListener
	nextPort int

	// In-flight connection-manager handshakes.
	pendingCM   map[uint32]*pendingConnect // by local (client) QPN
	cmAccepting map[uint32]*cmListener     // by local (server) QPN awaiting RTU

	// ctrl recycles the control replies (ack, RNR, NAK) this device sent,
	// each put back by the peer device that consumed it.
	ctrl sim.FreeList[wireMsg]

	rnrNaks uint64 // receiver-not-ready NAKs sent
}

// OpenDevice creates the RNIC on a node and claims the node's ProtoRDMA
// handler. A node hosts at most one device.
func OpenDevice(node *fabric.Node) *Device {
	d := &Device{
		node:     node,
		params:   node.Network().Params(),
		nextQPN:  1,
		nextKey:  1,
		qps:      make(map[uint32]*QP),
		mrs:      make(map[uint32]*MR),
		cmPorts:  make(map[int]*cmListener),
		nextPort: 49152,
	}
	node.Register(fabric.ProtoRDMA, d.deliver)
	return d
}

// Node returns the fabric node the device is attached to.
func (d *Device) Node() *fabric.Node { return d.node }

func (d *Device) loop() *sim.Loop { return d.node.Loop() }

// RegisteredMRs returns how many memory regions are currently registered.
func (d *Device) RegisteredMRs() int { return len(d.mrs) }

// AllocPD allocates a protection domain.
func (d *Device) AllocPD() *PD {
	return &PD{dev: d}
}

// PD is a protection domain scoping memory regions and queue pairs.
type PD struct {
	dev *Device
}

// MR is a registered memory region: a table of equally sized blocks.
// Registered is not resident — registration charges the modeled pinning
// cost for the whole region, but a block's bytes are backed only when first
// touched and only as far as the highest byte ever touched (growing by at
// least doubling, like append, capped at the block size), so a pool of
// large slots that carries small messages costs the host what the messages
// cost. A receive pool whose landed messages are handed up with Take is
// backed only while a message sits in it.
type MR struct {
	pd        *PD
	blocks    [][]byte // blocks[i] backs region bytes from i*blockSize; nil until touched
	blockSize int
	lkey      uint32
	rkey      uint32
	access    Access
	valid     bool
}

// RegisterMR pins and registers size bytes with the NIC as a single block.
// The CPU cost of page pinning and NIC translation-table programming is
// charged immediately; ready runs when registration completes (may be nil
// for setup-time registration where the caller does not care about the
// delay).
func (pd *PD) RegisterMR(size int, access Access, ready func()) *MR {
	return pd.RegisterPool(1, size, access, ready)
}

// RegisterPool registers one region of blocks × blockSize bytes — a buffer
// pool whose slots are the blocks. It costs exactly what RegisterMR of the
// same total size costs; a work request's extent must stay inside one block.
func (pd *PD) RegisterPool(blocks, blockSize int, access Access, ready func()) *MR {
	dev := pd.dev
	mr := &MR{
		pd:        pd,
		blocks:    make([][]byte, blocks),
		blockSize: blockSize,
		lkey:      dev.nextKey,
		rkey:      dev.nextKey + 1,
		access:    access,
		valid:     true,
	}
	dev.nextKey += 2
	dev.mrs[mr.rkey] = mr
	cost := dev.params.RDMA.MemRegisterBase + model.KB(dev.params.RDMA.MemRegisterPerKB, mr.Len())
	dev.node.CPU.Acquire(cost, func() { // set-up, off the frame path: the closure stays
		if ready != nil {
			ready()
		}
	})
	return mr
}

// Deregister invalidates the region; subsequent remote access fails.
func (mr *MR) Deregister() {
	if mr.valid {
		mr.valid = false
		delete(mr.pd.dev.mrs, mr.rkey)
	}
}

// holds reports whether [off, off+n) lies inside the region and inside one
// block — the extent check of every work request and one-sided access.
func (mr *MR) holds(off, n int) bool {
	return off >= 0 && n >= 0 && off+n <= mr.Len() &&
		(n == 0 || off/mr.blockSize == (off+n-1)/mr.blockSize)
}

// Slice returns the n region bytes at off, which must lie inside one block
// (it panics on an extent the posting verbs would have rejected). The block
// is backed as far as off+n first, so never-written bytes read as zeros.
// The result aliases the block's backing at the time of the call: a reader
// may keep it (it retains its bytes if the block later grows), a writer
// must take a fresh Slice for every write.
func (mr *MR) Slice(off, n int) []byte {
	if n == 0 {
		return nil
	}
	i, lo := off/mr.blockSize, off%mr.blockSize
	hi := lo + n
	if hi > len(mr.blocks[i]) {
		size := 2 * len(mr.blocks[i])
		if size < hi {
			size = hi
		}
		if size > mr.blockSize {
			size = mr.blockSize
		}
		grown := make([]byte, size)
		copy(grown, mr.blocks[i])
		mr.blocks[i] = grown
	}
	return mr.blocks[i][lo:hi:hi]
}

// Take returns what Slice would and detaches the block's backing from the
// region: the bytes are the caller's from here on, and the block is backed
// afresh by its next touch — a landed message handed upward without a copy.
func (mr *MR) Take(off, n int) []byte {
	b := mr.Slice(off, n)
	mr.blocks[off/mr.blockSize] = nil
	return b
}

// Len returns the region size.
func (mr *MR) Len() int { return len(mr.blocks) * mr.blockSize }

// RKey returns the remote key a peer needs for one-sided access.
func (mr *MR) RKey() uint32 { return mr.rkey }

// CQ is a completion queue with an optional completion-channel callback.
type CQ struct {
	dev      *Device
	capacity int
	entries  sim.Queue[CQE]
	onEvent  func()
	armed    bool
	// err is ErrCQOverrun once a completion found the queue full: every
	// QP completing to it was failed, and no QP can be created on it again.
	err error

	// eventCost overrides the per-notification CPU cost (default:
	// RDMAParams.CompletionHandle, the heavy event-channel path).
	// Frameworks with their own lightweight event manager — RUBIN's
	// hybrid event queue — set a smaller value and charge their own
	// dispatch cost instead.
	eventCost sim.Time
	hasCost   bool

	// notifyPending prevents charging more than one in-flight wakeup, so
	// the wakeup's callback is bound once.
	notifyPending bool
	notifyFn      func() // cq.notify
}

// SetEventCost overrides the CPU cost charged per completion-channel
// notification.
func (cq *CQ) SetEventCost(d sim.Time) {
	cq.eventCost = d
	cq.hasCost = true
}

func (cq *CQ) notifyCost() sim.Time {
	if cq.hasCost {
		return cq.eventCost
	}
	return cq.dev.params.RDMA.CompletionHandle
}

// CreateCQ creates a completion queue holding up to capacity entries.
func (d *Device) CreateCQ(capacity int) *CQ {
	if capacity < 1 {
		panic("rdma: CQ capacity must be positive")
	}
	cq := &CQ{dev: d, capacity: capacity}
	cq.notifyFn = cq.notify
	return cq
}

// Capacity returns how many entries the CQ holds.
func (cq *CQ) Capacity() int { return cq.capacity }

// Resize sets how many entries the CQ holds, as ibv_resize_cq does: a
// consumer that shares one CQ among its QPs grows it by what each QP can have
// outstanding as the QP joins and shrinks it as the QP leaves, so the CQ
// cannot overrun. Queued entries stay queued.
func (cq *CQ) Resize(capacity int) {
	if capacity < 1 {
		panic("rdma: CQ capacity must be positive")
	}
	cq.capacity = capacity
}

// OnEvent installs the completion-channel callback. The callback fires
// (after the modeled completion-handling CPU cost) when a CQE is added
// while the CQ is armed; it is then disarmed until RequestNotify is called
// again — matching ibv completion-channel semantics.
func (cq *CQ) OnEvent(fn func()) { cq.onEvent = fn }

// RequestNotify arms the completion channel for the next CQE.
func (cq *CQ) RequestNotify() {
	cq.armed = true
	if cq.entries.Len() > 0 {
		cq.fire()
	}
}

// Poll moves up to len(buf) entries, oldest first, into the caller's array
// and returns how many — ibv_poll_cq's shape; the rest stay queued. The poll
// cost is charged to the app thread unless the CQ was empty.
func (cq *CQ) Poll(buf []CQE) int {
	n := min(cq.entries.Len(), len(buf))
	if n == 0 {
		return 0
	}
	for i := range buf[:n] {
		buf[i] = cq.entries.Pop()
	}
	cq.dev.node.App.Delay(cq.dev.params.RDMA.CQPoll)
	return n
}

func (cq *CQ) push(e CQE) {
	if cq.err != nil {
		return
	}
	if cq.entries.Len() >= cq.capacity {
		cq.overrun()
		return
	}
	cq.entries.Push(e)
	if cq.armed {
		cq.fire()
	}
}

// overrun fails the CQ and every QP that completes to it, as InfiniBand's CQ
// error event does: a dropped completion would otherwise strand its work
// request — a receive slot never re-posted, a send slot never released —
// and stall its QP without a word.
func (cq *CQ) overrun() {
	cq.err = ErrCQOverrun
	for n := uint32(1); n < cq.dev.nextQPN; n++ {
		if qp := cq.dev.qps[n]; qp != nil && (qp.cfg.SendCQ == cq || qp.cfg.RecvCQ == cq) {
			qp.state = QPError
		}
	}
}

// clean removes a destroyed QP's unpolled entries, as providers clean a CQ
// when its QP is destroyed.
func (cq *CQ) clean(qpn uint32) {
	for i, n := 0, cq.entries.Len(); i < n; i++ {
		if e := cq.entries.Pop(); e.QPN != qpn {
			cq.entries.Push(e)
		}
	}
}

func (cq *CQ) fire() {
	if cq.onEvent == nil || cq.notifyPending {
		return
	}
	cq.armed = false
	cq.notifyPending = true
	cq.dev.node.App.Acquire(cq.notifyCost(), cq.notifyFn)
}

func (cq *CQ) notify() {
	cq.notifyPending = false
	if cq.onEvent != nil {
		cq.onEvent()
	}
}
