package rdma

import (
	"rubin/internal/fabric"
	"rubin/internal/model"
)

// wireKind discriminates RDMA protocol messages on the fabric.
type wireKind uint8

const (
	wireSend wireKind = iota + 1
	wireWrite
	wireAck
	wireRNR
	wireNakAccess
	wireNakLength
	// Connection-manager handshake.
	wireCMReq
	wireCMRep
	wireCMRTU
	wireCMRej
)

func (k wireKind) op() Opcode {
	switch k {
	case wireSend:
		return OpSend
	case wireWrite:
		return OpWrite
	default:
		return 0
	}
}

// wireMsg is the single payload type the device exchanges over the fabric.
type wireMsg struct {
	kind     wireKind
	srcQPN   uint32
	dstQPN   uint32
	wrid     uint64
	psn      uint64
	data     []byte
	rkey     uint32
	roffset  int
	signaled bool
	// CM fields.
	cmPort int

	home *Device // control replies only: the device whose free list it goes back to
}

// deliver is the fabric handler for ProtoRDMA frames: it demultiplexes to
// queue pairs and the connection manager.
func (d *Device) deliver(from *fabric.Node, payload any, wireBytes int) {
	msg, ok := payload.(*wireMsg)
	if !ok {
		return
	}
	switch msg.kind {
	case wireCMReq, wireCMRep, wireCMRTU, wireCMRej:
		d.handleCM(from, msg)
		return
	}
	qp := d.qps[msg.dstQPN]
	if qp == nil || qp.state == QPError {
		return
	}
	switch msg.kind {
	case wireSend, wireWrite:
		// Requester->responder traffic runs through the per-QP receive
		// pipeline to preserve RC ordering.
		qp.rxQ.Push(msg)
		qp.pumpRecv()
	case wireAck:
		qp.handleAck(msg.psn)
	case wireRNR:
		qp.handleRNR(msg.psn)
	case wireNakAccess:
		qp.completeSend(msg.psn, StatusRemoteAccess)
	case wireNakLength:
		qp.completeSend(msg.psn, StatusRecvLengthErr)
	}
	// A control reply was consumed synchronously above: the one point that
	// returns it to its sender. One a fault drops is left to the collector.
	if msg.home != nil {
		msg.home.ctrl.Put(msg)
	}
}

// pumpRecv drives the per-QP responder pipeline one message at a time.
func (qp *QP) pumpRecv() {
	if qp.rxActive || qp.rxQ.Len() == 0 || qp.state == QPError {
		return
	}
	qp.rxActive = true
	msg := qp.rxQ.Pop()

	p := qp.dev.params.RDMA
	// Responder NIC work: descriptor processing plus the DMA that moves
	// the payload to host memory. All of it is on the NIC — the remote
	// CPU stays idle, which is RDMA's defining property.
	cost := p.NICProcess + model.KB(p.DMAPerKB, len(msg.data))
	qp.rxMsg = msg
	qp.dev.node.NIC.Acquire(model.DMA, cost, qp.rxDoneFn)
}

// rxDone runs when the NIC has processed the message pumpRecv admitted. A QP
// that failed or was destroyed meanwhile drops it, as it drops every frame
// that arrives after.
func (qp *QP) rxDone() {
	if qp.state != QPError {
		qp.finishRecv(qp.rxMsg)
	}
	qp.rxMsg, qp.rxActive = nil, false
	qp.pumpRecv()
}

func (qp *QP) finishRecv(msg *wireMsg) {
	p := qp.dev.params.RDMA
	// Strict RC ordering at the responder.
	if msg.psn < qp.rxExpected {
		// Duplicate of an already-processed packet: re-ack so the
		// sender can retire it.
		qp.reply(wireAck, msg.psn)
		return
	}
	if msg.psn > qp.rxExpected {
		// A gap: an earlier packet is in RNR backoff. Reject so the
		// sender retries this one after the gap fills.
		qp.reply(wireRNR, msg.psn)
		return
	}
	switch msg.kind {
	case wireSend:
		if qp.recvQ.Len() == 0 {
			// Receiver not ready: NAK so the sender backs off and
			// retries (paper: "it is important to allocate enough
			// receive requests").
			qp.dev.rnrNaks++
			qp.reply(wireRNR, msg.psn)
			return
		}
		wr := qp.recvQ.Pop()
		qp.rxExpected = msg.psn + 1
		if wr.Length < len(msg.data) {
			qp.cfg.RecvCQ.push(CQE{WRID: wr.ID, QPN: qp.num, Op: OpRecv, Status: StatusRecvLengthErr})
			qp.reply(wireNakLength, msg.psn)
			qp.state = QPError
			return
		}
		copy(wr.MR.Slice(wr.Offset, len(msg.data)), msg.data)
		qp.received++
		qp.dev.node.NIC.Delay(model.Completion, p.CQEGenerate)
		qp.cfg.RecvCQ.push(CQE{WRID: wr.ID, QPN: qp.num, Op: OpRecv, Status: StatusOK, Bytes: len(msg.data)})
		qp.reply(wireAck, msg.psn)

	case wireWrite:
		qp.rxExpected = msg.psn + 1
		mr := qp.dev.mrs[msg.rkey]
		if mr == nil || !mr.valid || mr.access&AccessRemoteWrite == 0 ||
			!mr.holds(msg.roffset, len(msg.data)) {
			qp.reply(wireNakAccess, msg.psn)
			return
		}
		copy(mr.Slice(msg.roffset, len(msg.data)), msg.data)
		// One-sided: no receive CQE, no CPU involvement; just the ack.
		qp.reply(wireAck, msg.psn)
	}
}

// reply sends a control message back to the peer QP. The message comes from
// the device's free list; the receiving device returns it (Device.deliver).
func (qp *QP) reply(kind wireKind, psn uint64) {
	msg := qp.dev.ctrl.Get()
	*msg = wireMsg{kind: kind, psn: psn, srcQPN: qp.num, dstQPN: qp.remoteQPN, home: qp.dev}
	qp.transmit(msg, ctrlWireBytes)
}

// handleAck retires a pending send: the WR slot frees and, if the WR was
// signaled, a CQE is generated (selective signaling: unsignaled successes
// complete silently). An ack for a PSN already retired is ignored.
func (qp *QP) handleAck(psn uint64) {
	entry := qp.unacked(psn)
	if entry == nil {
		return
	}
	qp.sent++
	if entry.msg.signaled {
		qp.dev.node.NIC.Delay(model.Completion, qp.dev.params.RDMA.CQEGenerate)
		qp.cfg.SendCQ.push(CQE{
			WRID:   entry.msg.wrid,
			QPN:    qp.num,
			Op:     entry.op,
			Status: StatusOK,
			Bytes:  len(entry.msg.data),
		})
	}
	qp.retire(entry)
	qp.pumpSend()
}

// handleRNR retransmits after a backoff, up to the configured retry count.
// The backoff is off the steady-state path and keeps its closures: several
// entries can be backing off at once, and each retry re-sends its own.
func (qp *QP) handleRNR(psn uint64) {
	entry := qp.unacked(psn)
	if entry == nil {
		return
	}
	p := qp.dev.params.RDMA
	entry.retries++
	// IB semantics: an RNR retry count of 7 retries forever.
	if p.RNRRetry < 7 && entry.retries > p.RNRRetry {
		qp.failSend(entry, StatusRNRRetryExceeded)
		return
	}
	qp.dev.loop().After(p.RNRDelay, func() {
		if qp.state != QPReady {
			return
		}
		// The NIC re-reads the payload for the retransmission.
		cost := p.NICProcess + model.KB(p.DMAPerKB, len(entry.msg.data))
		qp.dev.node.NIC.Acquire(model.DMA, cost, func() {
			if qp.state == QPReady {
				qp.transmit(&entry.msg, entry.wire)
			}
		})
	})
}

// completeSend finishes a pending send with an error status and moves the
// QP to the error state.
func (qp *QP) completeSend(psn uint64, status Status) {
	if entry := qp.unacked(psn); entry != nil {
		qp.failSend(entry, status)
	}
}

func (qp *QP) failSend(entry *txEntry, status Status) {
	wrid, op := entry.msg.wrid, entry.op
	qp.retire(entry)
	qp.fatal(wrid, op, status)
}
