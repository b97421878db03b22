package rdma

import (
	"cmp"
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
)

// QPState is the lifecycle state of a queue pair.
type QPState uint8

// Queue pair states (simplified RC state machine).
const (
	QPInit QPState = iota + 1
	QPReady
	QPError
)

func (s QPState) String() string {
	switch s {
	case QPInit:
		return "INIT"
	case QPReady:
		return "RTS"
	case QPError:
		return "ERROR"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// QPConfig sizes a queue pair at creation time.
type QPConfig struct {
	SendCQ    *CQ
	RecvCQ    *CQ
	MaxSendWR int // send queue depth
	MaxRecvWR int // receive queue depth
	MaxInline int // largest inline payload accepted by PostSend
}

// SendWR is a send-side work request: a two-sided SEND or a one-sided
// WRITE.
type SendWR struct {
	ID uint64
	Op Opcode

	// Local buffer: either a registered-region extent, which belongs to
	// the NIC from PostSend until the WR's completion — the NIC reads it in
	// place, so rewriting it earlier changes what is sent...
	MR     *MR
	Offset int
	Length int
	// ...or inline payload carried in the WR itself (subject to
	// MaxInline); inline sends skip the NIC's DMA read. PostSend
	// copies the bytes into storage the WR owns and keeps (staged), so the
	// caller's buffer is free for reuse as soon as it returns and a poster
	// that reuses its WRs pays for the storage once.
	Inline []byte
	staged []byte

	// Remote target for a one-sided WRITE.
	RemoteKey    uint32
	RemoteOffset int

	// Signaled requests a CQE on success. Errors always generate CQEs.
	Signaled bool
}

// StageInline copies p into the WR's own storage and makes that the inline
// payload: the one copy an inline send costs, taken ahead of PostSend (which
// then takes none) by a poster that queues WRs before it rings the doorbell.
func (wr *SendWR) StageInline(p []byte) {
	wr.staged = append(wr.staged[:0], p...)
	wr.Inline = wr.staged
}

// RecvWR is a posted receive buffer for two-sided SENDs.
type RecvWR struct {
	ID     uint64
	MR     *MR
	Offset int
	Length int
}

// QP is a reliable-connection queue pair.
type QP struct {
	dev   *Device
	pd    *PD
	num   uint32
	state QPState
	cfg   QPConfig

	remoteNode *fabric.Node // set on connect
	remoteQPN  uint32

	// Send pipeline: WRs are processed by the NIC strictly in order per
	// QP (RC ordering); outstanding counts WRs posted but not yet acked.
	// txActive admits one WR to the NIC at a time: its operands are fields
	// (txWR, txPayload), its callbacks method values bound once.
	sendQ       sim.Queue[*SendWR]
	txActive    bool
	txWR        *SendWR
	txPayload   []byte
	outstanding int
	pumpSendFn  func() // qp.pumpSend
	txDoneFn    func() // qp.txDone

	// Receive queue of posted buffers, consumed FIFO by arriving SENDs.
	recvQ sim.Queue[RecvWR]

	// Receive pipeline serialization (per-QP in-order delivery): rxActive
	// admits one message at a time, rxMsg is the one on the NIC.
	rxQ      sim.Queue[*wireMsg]
	rxActive bool
	rxMsg    *wireMsg
	rxDoneFn func() // qp.rxDone

	// Reliability: every data-path message carries a packet sequence
	// number; pending holds unacknowledged sends for RNR retransmission.
	// rxExpected enforces strict RC ordering at the responder: packets
	// beyond the expected PSN are NAKed for retry, duplicates below it
	// are re-acked and dropped, so acks (and thus selective-signaling
	// coverage) can never complete out of order.
	//
	// PSNs are consecutive, so pending is a window: cell i holds the entry
	// of PSN pendingBase+i, nil once retired. Acks retire the front; only a
	// failed send, which moves the QP to the error state, retires mid-window.
	nextPSN     uint64
	rxExpected  uint64
	pending     sim.Queue[*txEntry]
	pendingBase uint64
	freeTx      sim.FreeList[txEntry] // retired entries

	// Stats.
	sent, received uint64
}

// txEntry is an unacknowledged transmitted WR kept for RNR retry. Every
// (re)transmission puts &entry.msg on the fabric, so only the ack or NAK that
// retires its PSN may release it — a responder may be reading it until then.
type txEntry struct {
	msg     wireMsg
	wire    int
	op      Opcode
	retries int
}

// unacked returns psn's pending entry, nil once retired or if never sent.
func (qp *QP) unacked(psn uint64) *txEntry {
	if i := psn - qp.pendingBase; i < uint64(qp.pending.Len()) {
		return *qp.pending.At(int(i))
	}
	return nil
}

// retire closes e's cell, slides the window past every closed cell at its
// front, and recycles the entry.
func (qp *QP) retire(e *txEntry) {
	*qp.pending.At(int(e.msg.psn - qp.pendingBase)) = nil
	for qp.pending.Len() > 0 && *qp.pending.Front() == nil {
		qp.pending.Pop()
		qp.pendingBase++
	}
	qp.outstanding--
	e.msg.data = nil
	qp.freeTx.Put(e)
}

// CreateQP creates a queue pair in the Init state. Connect it via the
// connection manager (Listen/Connect) before posting.
func (d *Device) CreateQP(pd *PD, cfg QPConfig) (*QP, error) {
	if cfg.SendCQ == nil || cfg.RecvCQ == nil {
		return nil, fmt.Errorf("rdma: QP needs send and recv CQs")
	}
	if cfg.MaxSendWR < 1 || cfg.MaxRecvWR < 1 {
		return nil, fmt.Errorf("rdma: QP queue depths must be positive")
	}
	if err := cmp.Or(cfg.SendCQ.err, cfg.RecvCQ.err); err != nil {
		return nil, fmt.Errorf("rdma: create QP: %w", err)
	}
	if cfg.MaxInline > d.params.RDMA.InlineMax {
		cfg.MaxInline = d.params.RDMA.InlineMax
	}
	qp := &QP{
		dev:   d,
		pd:    pd,
		num:   d.nextQPN,
		state: QPInit,
		cfg:   cfg,
	}
	qp.pumpSendFn, qp.txDoneFn, qp.rxDoneFn = qp.pumpSend, qp.txDone, qp.rxDone
	d.nextQPN++
	d.qps[qp.num] = qp
	return qp, nil
}

// RemoteNode returns the peer's fabric node once connected, else nil.
func (qp *QP) RemoteNode() *fabric.Node { return qp.remoteNode }

// Num returns the QP number, unique on its device: the QPN its CQEs carry.
func (qp *QP) Num() uint32 { return qp.num }

// Destroy tears the QP down, as ibv_destroy_qp does: the device forgets it,
// so no frame reaches it and it completes nothing more, and the entries it
// left unpolled leave its CQs with it — a consumer sharing a CQ among QPs
// can shrink the CQ by this one's share at once.
func (qp *QP) Destroy() {
	delete(qp.dev.qps, qp.num)
	qp.state = QPError
	qp.cfg.SendCQ.clean(qp.num)
	qp.cfg.RecvCQ.clean(qp.num)
}

// SendSlots returns how many more send WRs can be posted right now.
func (qp *QP) SendSlots() int { return qp.cfg.MaxSendWR - qp.outstanding - qp.sendQ.Len() }

// PostRecv posts receive buffers. Each WR must reference a local-writable
// registered region.
func (qp *QP) PostRecv(wrs ...RecvWR) error {
	if qp.state == QPError {
		return ErrQPState
	}
	if qp.recvQ.Len()+len(wrs) > qp.cfg.MaxRecvWR {
		return ErrRecvQueueFul
	}
	for _, wr := range wrs {
		if wr.MR == nil || !wr.MR.valid || wr.MR.access&AccessLocalWrite == 0 ||
			!wr.MR.holds(wr.Offset, wr.Length) {
			return fmt.Errorf("%w: recv wr %d", ErrBadMR, wr.ID)
		}
	}
	for _, wr := range wrs {
		qp.recvQ.Push(wr)
	}
	// Re-posting receives is a cheap doorbell on the thread that polls them.
	qp.cfg.RecvCQ.thread.Delay(model.Post, qp.dev.params.RDMA.RecvWRRefill*sim.Time(len(wrs)))
	return nil
}

// PostSend posts one or more send-side WRs with a single doorbell: the
// first WR pays the full doorbell cost, the rest the batched marginal cost
// (the paper's batched posting optimization). WRs are processed by the NIC
// in order and belong to the QP until they complete.
func (qp *QP) PostSend(wrs ...*SendWR) error {
	if qp.state != QPReady {
		return ErrQPState
	}
	if len(wrs) == 0 {
		return nil
	}
	if len(wrs) > qp.SendSlots() {
		return ErrSendQueueFul
	}
	for _, wr := range wrs {
		if err := qp.validateSend(wr); err != nil {
			return err
		}
	}
	for _, wr := range wrs {
		if n := len(wr.Inline); n > 0 && (n != len(wr.staged) || &wr.Inline[0] != &wr.staged[0]) {
			wr.StageInline(wr.Inline) // not the WR's own copy yet
		}
		qp.sendQ.Push(wr)
	}
	p := qp.dev.params.RDMA
	cost := p.PostWR + p.PostWRBatched*sim.Time(len(wrs)-1)
	qp.cfg.SendCQ.thread.Acquire(model.Post, cost, qp.pumpSendFn)
	return nil
}

func (qp *QP) validateSend(wr *SendWR) error {
	if wr.Op != OpSend && wr.Op != OpWrite {
		return fmt.Errorf("rdma: bad opcode %v in send WR", wr.Op)
	}
	if len(wr.Inline) > 0 {
		if len(wr.Inline) > qp.cfg.MaxInline {
			return fmt.Errorf("%w: %d > %d", ErrInlineTooBig, len(wr.Inline), qp.cfg.MaxInline)
		}
		return nil
	}
	if wr.MR == nil || !wr.MR.valid || !wr.MR.holds(wr.Offset, wr.Length) {
		return fmt.Errorf("%w: send wr %d", ErrBadMR, wr.ID)
	}
	return nil
}

// pumpSend drives the per-QP NIC transmit pipeline, one WR at a time to
// preserve RC ordering. Parallelism across QPs comes from the NIC engine
// pool.
func (qp *QP) pumpSend() {
	if qp.txActive || qp.sendQ.Len() == 0 || qp.state != QPReady {
		return
	}
	qp.txActive = true
	wr := qp.sendQ.Pop()
	qp.outstanding++

	p := qp.dev.params.RDMA
	// The wire carries the WR's own bytes: the inline copy PostSend took,
	// or the region extent itself, which the poster may not touch before
	// the completion — that follows the ack, which follows the responder's
	// copy into its own memory, and an RNR retry re-sends this same entry.
	payload := wr.Inline
	// NIC engine work: descriptor processing plus the DMA read of the
	// payload (skipped for inline, which rode in with the doorbell).
	cost := p.NICProcess
	if len(payload) > 0 {
		cost = max(0, cost-p.InlineSave)
	} else {
		payload = wr.MR.Slice(wr.Offset, wr.Length)
		cost += model.KB(p.DMAPerKB, len(payload))
	}
	qp.txWR, qp.txPayload = wr, payload
	qp.dev.node.NIC.Acquire(model.DMA, cost, qp.txDoneFn)
}

// txDone runs when the NIC has processed the WR pumpSend admitted: the
// message gets its PSN, goes on the wire, and the next WR is admitted.
func (qp *QP) txDone() {
	wr, payload := qp.txWR, qp.txPayload
	qp.txWR, qp.txPayload = nil, nil
	entry := qp.freeTx.Get()
	*entry = txEntry{wire: len(payload), op: wr.Op}
	qp.pending.Push(entry) // the window cell of PSN nextPSN
	msg := &entry.msg
	msg.srcQPN, msg.dstQPN, msg.wrid, msg.signaled = qp.num, qp.remoteQPN, wr.ID, wr.Signaled
	msg.psn = qp.nextPSN
	qp.nextPSN++
	msg.kind, msg.data = wireSend, payload
	if wr.Op == OpWrite {
		msg.kind, msg.rkey, msg.roffset = wireWrite, wr.RemoteKey, wr.RemoteOffset
	}
	qp.transmit(msg, entry.wire)
	qp.txActive = false
	qp.pumpSend()
}

const ctrlWireBytes = 60

// transmit puts a wire message on the fabric.
func (qp *QP) transmit(msg *wireMsg, wire int) {
	if wire < ctrlWireBytes {
		wire = ctrlWireBytes
	}
	err := qp.dev.node.Network().Send(qp.dev.node, qp.remoteNode, fabric.ProtoRDMA, msg, wire)
	if err != nil {
		qp.fatal(msg.wrid, msg.kind.op(), StatusQPError)
	}
}

// fatal moves the QP to the error state and reports the failure.
func (qp *QP) fatal(wrid uint64, op Opcode, status Status) {
	if qp.state == QPError {
		return
	}
	qp.state = QPError
	qp.cfg.SendCQ.push(CQE{WRID: wrid, QPN: qp.num, Op: op, Status: status})
}
