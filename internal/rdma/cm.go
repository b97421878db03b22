package rdma

import (
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/model"
)

// cmListener is a connection-manager service point accepting QP setup
// requests on a port.
type cmListener struct {
	port    int
	pd      *PD
	makeCfg func() QPConfig
	onConn  func(*QP)
}

// ListenCM accepts queue-pair connections on a port. For each inbound
// request a QP is created in pd using makeCfg (called per connection so
// each QP gets fresh CQs if desired) and onConn runs once the handshake
// completes.
func (d *Device) ListenCM(port int, pd *PD, makeCfg func() QPConfig, onConn func(*QP)) error {
	if _, used := d.cmPorts[port]; used {
		return fmt.Errorf("%w: %d", ErrPortInUse, port)
	}
	if pd == nil || makeCfg == nil {
		return fmt.Errorf("rdma: ListenCM requires a PD and config factory")
	}
	d.cmPorts[port] = &cmListener{port: port, pd: pd, makeCfg: makeCfg, onConn: onConn}
	return nil
}

// pendingConnect tracks an in-flight outbound CM handshake keyed by the
// local QP number.
type pendingConnect struct {
	qp   *QP
	done func(*QP, error)
}

// ConnectCM creates a QP and connects it to a listener on the remote node.
// done runs when the handshake completes or is rejected.
func (d *Device) ConnectCM(remote *fabric.Node, port int, pd *PD, cfg QPConfig, done func(*QP, error)) {
	qp, err := d.CreateQP(pd, cfg)
	if err != nil {
		if done != nil {
			done(nil, err)
		}
		return
	}
	if d.pendingCM == nil {
		d.pendingCM = make(map[uint32]*pendingConnect)
	}
	d.pendingCM[qp.num] = &pendingConnect{qp: qp, done: done}
	req := &wireMsg{kind: wireCMReq, srcQPN: qp.num, cmPort: port}
	// CM setup runs through the kernel (rdma_cm), so charge a syscall-ish
	// cost; connection setup is off the data path.
	d.node.CPU.Acquire(model.ConnSetup, d.params.TCP.SendSyscall, func() {
		if err := d.node.Network().Send(d.node, remote, fabric.ProtoRDMA, req, ctrlWireBytes); err != nil {
			delete(d.pendingCM, qp.num)
			qp.state = QPError
			if done != nil {
				done(nil, err)
			}
			return
		}
		qp.remoteNode = remote
	})
}

// handleCM processes connection-manager handshake messages:
//
//	client                      server
//	  | -- REQ(port, cQPN) ------> |   create QP, RTS
//	  | <-- REP(sQPN, cQPN) ------ |
//	RTS, done(qp)                  |
//	  | -- RTU(sQPN) ------------> |   onConn(qp)
func (d *Device) handleCM(from *fabric.Node, msg *wireMsg) {
	switch msg.kind {
	case wireCMReq:
		l := d.cmPorts[msg.cmPort]
		if l == nil {
			rej := &wireMsg{kind: wireCMRej, dstQPN: msg.srcQPN}
			_ = d.node.Network().Send(d.node, from, fabric.ProtoRDMA, rej, ctrlWireBytes)
			return
		}
		qp, err := d.CreateQP(l.pd, l.makeCfg())
		if err != nil {
			rej := &wireMsg{kind: wireCMRej, dstQPN: msg.srcQPN}
			_ = d.node.Network().Send(d.node, from, fabric.ProtoRDMA, rej, ctrlWireBytes)
			return
		}
		qp.remoteNode = from
		qp.remoteQPN = msg.srcQPN
		qp.state = QPReady
		if d.cmAccepting == nil {
			d.cmAccepting = make(map[uint32]*cmListener)
		}
		d.cmAccepting[qp.num] = l
		rep := &wireMsg{kind: wireCMRep, srcQPN: qp.num, dstQPN: msg.srcQPN}
		_ = d.node.Network().Send(d.node, from, fabric.ProtoRDMA, rep, ctrlWireBytes)

	case wireCMRep:
		pc := d.pendingCM[msg.dstQPN]
		if pc == nil {
			return
		}
		delete(d.pendingCM, msg.dstQPN)
		pc.qp.remoteQPN = msg.srcQPN
		pc.qp.state = QPReady
		rtu := &wireMsg{kind: wireCMRTU, srcQPN: pc.qp.num, dstQPN: msg.srcQPN}
		_ = d.node.Network().Send(d.node, from, fabric.ProtoRDMA, rtu, ctrlWireBytes)
		if pc.done != nil {
			pc.done(pc.qp, nil)
		}

	case wireCMRTU:
		l := d.cmAccepting[msg.dstQPN]
		if l == nil {
			return
		}
		delete(d.cmAccepting, msg.dstQPN)
		qp := d.qps[msg.dstQPN]
		if qp != nil && l.onConn != nil {
			l.onConn(qp)
		}

	case wireCMRej:
		pc := d.pendingCM[msg.dstQPN]
		if pc == nil {
			return
		}
		delete(d.pendingCM, msg.dstQPN)
		pc.qp.state = QPError
		if pc.done != nil {
			pc.done(nil, ErrRejected)
		}
	}
}
