package bench

import (
	"fmt"

	"rubin/internal/model"
	"rubin/internal/rdma"
	"rubin/internal/sim"
)

// The raw-verbs set-up the Send/Recv and Read/Write series of Figure 3
// share: a connected queue pair with its completion queues and registered
// regions, and the two ways they drain a completion queue.

// pollAll empties a completion queue as a verbs poll loop does, sixteen
// entries per poll, handing each to visit; it returns how many there were.
func pollAll(cq *rdma.CQ, visit func(rdma.CQE)) int {
	var buf [16]rdma.CQE
	total := 0
	for {
		n := cq.Poll(buf[:])
		if n == 0 {
			return total
		}
		for _, cqe := range buf[:n] {
			visit(cqe)
		}
		total += n
	}
}

// drainCQStrict keeps a completion queue empty, charging the full
// completion-handling cost for every entry (no event coalescing): the
// behaviour of an application that signals and processes every send.
func drainCQStrict(cq *rdma.CQ, thread *sim.Resource, params model.Params) {
	pump := func() {
		drained := pollAll(cq, func(rdma.CQE) {})
		if drained > 1 {
			// The notification already charged one CompletionHandle;
			// charge the rest so the cost stays strictly per message.
			thread.Delay(model.Completion, params.RDMA.CompletionHandle*sim.Time(drained-1))
		}
		cq.RequestNotify()
	}
	cq.OnEvent(pump)
	cq.RequestNotify()
}

const qpSlots = 64

// qpPair bundles the verbs resources of a two-node echo.
type qpPair struct {
	client, server             *rdma.QP
	clientSendCQ, clientRecvCQ *rdma.CQ
	serverSendCQ, serverRecvCQ *rdma.CQ
	clientSendMR, clientRecvMR *rdma.MR
	serverSendMR, serverRecvMR *rdma.MR
	clientRemoteKey            uint32 // server-exposed region for one-sided ops
}

func connectQPs(loop *sim.Loop, cd, sd *rdma.Device, cfg EchoConfig) (*qpPair, error) {
	p := &qpPair{}
	clientPD, serverPD := cd.AllocPD(), sd.AllocPD()
	p.clientSendCQ, p.clientRecvCQ = cd.CreateCQ(2*qpSlots+8), cd.CreateCQ(2*qpSlots+8)
	p.serverSendCQ, p.serverRecvCQ = sd.CreateCQ(2*qpSlots+8), sd.CreateCQ(2*qpSlots+8)

	size := qpSlots * cfg.Payload
	if size == 0 {
		size = qpSlots
	}
	p.clientSendMR = clientPD.RegisterMR(size, rdma.AccessLocalWrite, nil)
	p.clientRecvMR = clientPD.RegisterMR(size, rdma.AccessLocalWrite, nil)
	p.serverSendMR = serverPD.RegisterMR(size, rdma.AccessLocalWrite, nil)
	p.serverRecvMR = serverPD.RegisterMR(size, rdma.AccessLocalWrite, nil)
	p.clientRemoteKey = serverPD.RegisterMR(size, rdma.AccessLocalWrite|rdma.AccessRemoteWrite, nil).RKey()

	var server *rdma.QP
	err := sd.ListenCM(9, serverPD, func() rdma.QPConfig {
		return rdma.QPConfig{SendCQ: p.serverSendCQ, RecvCQ: p.serverRecvCQ, MaxSendWR: qpSlots, MaxRecvWR: qpSlots}
	}, func(qp *rdma.QP) { server = qp })
	if err != nil {
		return nil, err
	}
	var client *rdma.QP
	var dialErr error
	loop.At(0, func() {
		cd.ConnectCM(sd.Node(), 9, clientPD,
			rdma.QPConfig{SendCQ: p.clientSendCQ, RecvCQ: p.clientRecvCQ, MaxSendWR: qpSlots, MaxRecvWR: qpSlots},
			func(qp *rdma.QP, err error) { client, dialErr = qp, err })
	})
	loop.Run()
	if dialErr != nil || client == nil || server == nil {
		return nil, fmt.Errorf("bench: QP setup failed: %v", dialErr)
	}
	p.client, p.server = client, server
	// Pre-post the full receive rings on both sides.
	for i := 0; i < qpSlots; i++ {
		off := i * cfg.Payload
		if err := server.PostRecv(rdma.RecvWR{ID: uint64(i), MR: p.serverRecvMR, Offset: off, Length: cfg.Payload}); err != nil {
			return nil, err
		}
		if err := client.PostRecv(rdma.RecvWR{ID: uint64(i), MR: p.clientRecvMR, Offset: off, Length: cfg.Payload}); err != nil {
			return nil, err
		}
	}
	return p, nil
}
