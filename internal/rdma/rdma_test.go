package rdma

import (
	"bytes"
	"errors"
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
)

// rig is a two-node RDMA test rig with a connected QP pair.
type rig struct {
	loop     *sim.Loop
	nw       *fabric.Network
	da, db   *Device
	pa, pb   *PD
	qpA, qpB *QP
	cqA, cqB *CQ // send CQs
	rqA, rqB *CQ // recv CQs
}

func newRig(t *testing.T) *rig { return newRigParams(t, nil) }

func newRigParams(t *testing.T, mutate func(*model.Params)) *rig {
	t.Helper()
	loop := sim.NewLoop(1)
	params := model.Default()
	if mutate != nil {
		mutate(&params)
	}
	nw := fabric.New(loop, params)
	na, nb := nw.AddNode("a"), nw.AddNode("b")
	nw.Connect(na, nb)
	r := &rig{loop: loop, nw: nw, da: OpenDevice(na), db: OpenDevice(nb)}
	r.pa, r.pb = r.da.AllocPD(), r.db.AllocPD()
	r.cqA, r.rqA = r.da.CreateCQ(128), r.da.CreateCQ(128)
	r.cqB, r.rqB = r.db.CreateCQ(128), r.db.CreateCQ(128)

	err := r.db.ListenCM(7, r.pb, func() QPConfig {
		return QPConfig{SendCQ: r.cqB, RecvCQ: r.rqB, MaxSendWR: 64, MaxRecvWR: 64, MaxInline: 256}
	}, func(qp *QP) { r.qpB = qp })
	if err != nil {
		t.Fatalf("ListenCM: %v", err)
	}
	loop.At(0, func() {
		r.da.ConnectCM(nb, 7, r.pa,
			QPConfig{SendCQ: r.cqA, RecvCQ: r.rqA, MaxSendWR: 64, MaxRecvWR: 64, MaxInline: 256},
			func(qp *QP, err error) {
				if err != nil {
					t.Errorf("ConnectCM: %v", err)
					return
				}
				r.qpA = qp
			})
	})
	loop.Run()
	if r.qpA == nil || r.qpB == nil {
		t.Fatal("CM handshake did not complete")
	}
	if r.qpA.state != QPReady || r.qpB.state != QPReady {
		t.Fatalf("QPs not ready: %v / %v", r.qpA.state, r.qpB.state)
	}
	return r
}

// poll takes up to 16 completions off a CQ; nil when it was empty.
func poll(cq *CQ) []CQE {
	buf := make([]CQE, 16)
	if n := cq.Poll(buf); n > 0 {
		return buf[:n]
	}
	return nil
}

func TestCMHandshakeEstablishesQPs(t *testing.T) {
	r := newRig(t)
	if r.qpA.num == r.qpB.num && r.da == r.db {
		t.Fatal("QP numbers must differ on one device")
	}
}

func TestCMConnectionRejectedWithoutListener(t *testing.T) {
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	na, nb := nw.AddNode("a"), nw.AddNode("b")
	nw.Connect(na, nb)
	da, db := OpenDevice(na), OpenDevice(nb)
	_ = db
	pd := da.AllocPD()
	cq := da.CreateCQ(16)
	var gotErr error
	loop.At(0, func() {
		da.ConnectCM(nb, 99, pd, QPConfig{SendCQ: cq, RecvCQ: cq, MaxSendWR: 8, MaxRecvWR: 8},
			func(qp *QP, err error) { gotErr = err })
	})
	loop.Run()
	if gotErr == nil {
		t.Fatal("expected rejection")
	}
}

func TestListenCMPortInUse(t *testing.T) {
	r := newRig(t)
	if err := r.db.ListenCM(7, r.pb, func() QPConfig { return QPConfig{} }, nil); err == nil {
		t.Fatal("duplicate ListenCM should fail")
	}
}

func TestSendRecvTransfersData(t *testing.T) {
	r := newRig(t)
	sendMR := r.pa.RegisterMR(4096, AccessLocalWrite, nil)
	recvMR := r.pb.RegisterMR(4096, AccessLocalWrite, nil)

	msg := bytes.Repeat([]byte{0xAB}, 2048)
	copy(sendMR.Slice(0, len(msg)), msg)

	var recvCQE, sendCQE *CQE
	r.loop.At(0, func() {
		if err := r.qpB.PostRecv(RecvWR{ID: 1, MR: recvMR, Length: 4096}); err != nil {
			t.Errorf("PostRecv: %v", err)
		}
		if err := r.qpA.PostSend(&SendWR{ID: 2, Op: OpSend, MR: sendMR, Length: 2048, Signaled: true}); err != nil {
			t.Errorf("PostSend: %v", err)
		}
	})
	r.loop.Run()
	for _, e := range poll(r.rqB) {
		e := e
		recvCQE = &e
	}
	for _, e := range poll(r.cqA) {
		e := e
		sendCQE = &e
	}
	if recvCQE == nil || recvCQE.Status != StatusOK || recvCQE.Bytes != 2048 {
		t.Fatalf("bad recv CQE: %+v", recvCQE)
	}
	if recvCQE.WRID != 1 || recvCQE.Op != OpRecv {
		t.Fatalf("recv CQE identity wrong: %+v", recvCQE)
	}
	if sendCQE == nil || sendCQE.Status != StatusOK || sendCQE.WRID != 2 {
		t.Fatalf("bad send CQE: %+v", sendCQE)
	}
	if !bytes.Equal(recvMR.Slice(0, 2048), msg) {
		t.Fatal("payload corrupted in flight")
	}
	if r.qpA.sent != 1 || r.qpB.received != 1 {
		t.Fatalf("counters wrong: sent=%d received=%d", r.qpA.sent, r.qpB.received)
	}
}

func TestUnsignaledSendProducesNoCQE(t *testing.T) {
	r := newRig(t)
	sendMR := r.pa.RegisterMR(1024, AccessLocalWrite, nil)
	recvMR := r.pb.RegisterMR(1024, AccessLocalWrite, nil)
	r.loop.At(0, func() {
		_ = r.qpB.PostRecv(RecvWR{ID: 1, MR: recvMR, Length: 1024})
		_ = r.qpA.PostSend(&SendWR{ID: 2, Op: OpSend, MR: sendMR, Length: 512, Signaled: false})
	})
	r.loop.Run()
	if got := poll(r.cqA); got != nil {
		t.Fatalf("unsignaled send produced CQEs: %+v", got)
	}
	// The WR slot must still be reclaimed on ack.
	if r.qpA.SendSlots() != 64 {
		t.Fatalf("send slots = %d, want 64 (slot leak)", r.qpA.SendSlots())
	}
}

func TestInlineSendDeliversAndRejectsOversize(t *testing.T) {
	r := newRig(t)
	recvMR := r.pb.RegisterMR(1024, AccessLocalWrite, nil)
	payload := []byte("inline-payload")
	r.loop.At(0, func() {
		_ = r.qpB.PostRecv(RecvWR{ID: 1, MR: recvMR, Length: 1024})
		if err := r.qpA.PostSend(&SendWR{ID: 2, Op: OpSend, Inline: payload, Signaled: true}); err != nil {
			t.Errorf("inline PostSend: %v", err)
		}
		if err := r.qpA.PostSend(&SendWR{ID: 3, Op: OpSend, Inline: make([]byte, 4096)}); err == nil {
			t.Error("oversized inline send should fail")
		}
	})
	r.loop.Run()
	if !bytes.Equal(recvMR.Slice(0, len(payload)), payload) {
		t.Fatal("inline payload corrupted")
	}
}

func TestRNRNakAndRetryDelivers(t *testing.T) {
	r := newRig(t)
	sendMR := r.pa.RegisterMR(1024, AccessLocalWrite, nil)
	recvMR := r.pb.RegisterMR(1024, AccessLocalWrite, nil)
	copy(sendMR.Slice(0, 8), "retry me")
	r.loop.Post(func() {
		// No receive posted yet: first attempt draws an RNR NAK.
		_ = r.qpA.PostSend(&SendWR{ID: 1, Op: OpSend, MR: sendMR, Length: 8, Signaled: true})
	})
	// Post the receive while the sender is backing off after the NAK.
	r.loop.After(int64EqDelay(), func() {
		_ = r.qpB.PostRecv(RecvWR{ID: 2, MR: recvMR, Length: 1024})
	})
	r.loop.Run()
	if r.db.rnrNaks == 0 {
		t.Fatal("expected at least one RNR NAK")
	}
	cqes := poll(r.cqA)
	if len(cqes) != 1 || cqes[0].Status != StatusOK {
		t.Fatalf("send did not complete after retry: %+v", cqes)
	}
	if string(recvMR.Slice(0, 8)) != "retry me" {
		t.Fatal("payload corrupted across retry")
	}
}

// int64EqDelay returns a time safely inside the first RNR backoff window.
func int64EqDelay() sim.Time { return 30 * sim.Microsecond }

func TestRNRRetriesExhaustedErrorsQP(t *testing.T) {
	// A finite retry budget (anything below the IB "infinite" value 7)
	// must error the QP once exhausted.
	const retries = 3
	r := newRigParams(t, func(p *model.Params) { p.RDMA.RNRRetry = retries })
	sendMR := r.pa.RegisterMR(1024, AccessLocalWrite, nil)
	r.loop.Post(func() {
		_ = r.qpA.PostSend(&SendWR{ID: 1, Op: OpSend, MR: sendMR, Length: 8, Signaled: true})
	})
	r.loop.Run() // receiver never posts a buffer
	cqes := poll(r.cqA)
	if len(cqes) != 1 || cqes[0].Status != StatusRNRRetryExceeded {
		t.Fatalf("want RNR_RETRY_EXCEEDED, got %+v", cqes)
	}
	if r.qpA.state != QPError {
		t.Fatalf("QP state = %v, want ERROR", r.qpA.state)
	}
	if got := int(r.db.rnrNaks); got != retries+1 {
		t.Fatalf("RNR NAKs = %d, want %d", got, retries+1)
	}
}

func TestRNRDefaultRetriesForever(t *testing.T) {
	// With the default (infinite) retry setting, a late receive still
	// completes the send even after many NAKs.
	r := newRig(t)
	sendMR := r.pa.RegisterMR(1024, AccessLocalWrite, nil)
	recvMR := r.pb.RegisterMR(1024, AccessLocalWrite, nil)
	r.loop.Post(func() {
		_ = r.qpA.PostSend(&SendWR{ID: 1, Op: OpSend, MR: sendMR, Length: 8, Signaled: true})
	})
	// Post the receive only after ~20 backoff periods.
	r.loop.After(20*model.Default().RDMA.RNRDelay, func() {
		_ = r.qpB.PostRecv(RecvWR{ID: 2, MR: recvMR, Length: 1024})
	})
	r.loop.Run()
	cqes := poll(r.cqA)
	if len(cqes) != 1 || cqes[0].Status != StatusOK {
		t.Fatalf("send did not survive extended RNR: %+v", cqes)
	}
	if r.db.rnrNaks < 8 {
		t.Fatalf("expected > 7 NAKs, got %d", r.db.rnrNaks)
	}
}

func TestOneSidedWrite(t *testing.T) {
	r := newRig(t)
	local := r.pa.RegisterMR(1024, AccessLocalWrite, nil)
	remote := r.pb.RegisterMR(1024, AccessLocalWrite|AccessRemoteWrite, nil)
	copy(local.Slice(0, 15), "one-sided write")

	r.loop.At(0, func() {
		err := r.qpA.PostSend(&SendWR{
			ID: 1, Op: OpWrite, MR: local, Length: 15,
			RemoteKey: remote.RKey(), RemoteOffset: 100, Signaled: true,
		})
		if err != nil {
			t.Errorf("PostSend(WRITE): %v", err)
		}
	})
	r.loop.Run()
	if string(remote.Slice(100, 15)) != "one-sided write" {
		t.Fatal("write did not land in remote memory")
	}
	cqes := poll(r.cqA)
	if len(cqes) != 1 || cqes[0].Status != StatusOK || cqes[0].Op != OpWrite {
		t.Fatalf("bad write CQE: %+v", cqes)
	}
	// One-sided: the responder CPU must not have been involved and no
	// receive CQE generated.
	if r.rqB.entries.Len() != 0 {
		t.Fatal("one-sided write generated a receive CQE")
	}
}

func TestOneSidedWriteAccessViolation(t *testing.T) {
	r := newRig(t)
	local := r.pa.RegisterMR(1024, AccessLocalWrite, nil)
	remote := r.pb.RegisterMR(1024, AccessLocalWrite, nil) // no RemoteWrite

	r.loop.At(0, func() {
		_ = r.qpA.PostSend(&SendWR{
			ID: 1, Op: OpWrite, MR: local, Length: 8,
			RemoteKey: remote.RKey(), Signaled: true,
		})
	})
	r.loop.Run()
	cqes := poll(r.cqA)
	if len(cqes) != 1 || cqes[0].Status != StatusRemoteAccess {
		t.Fatalf("want REMOTE_ACCESS_ERROR, got %+v", cqes)
	}
	if r.qpA.state != QPError {
		t.Fatal("QP should be in error state after access violation")
	}
}

func TestOneSidedWriteBoundsViolation(t *testing.T) {
	r := newRig(t)
	local := r.pa.RegisterMR(1024, AccessLocalWrite, nil)
	remote := r.pb.RegisterMR(64, AccessLocalWrite|AccessRemoteWrite, nil)
	r.loop.At(0, func() {
		_ = r.qpA.PostSend(&SendWR{
			ID: 1, Op: OpWrite, MR: local, Length: 128, // larger than remote MR
			RemoteKey: remote.RKey(), Signaled: true,
		})
	})
	r.loop.Run()
	cqes := poll(r.cqA)
	if len(cqes) != 1 || cqes[0].Status != StatusRemoteAccess {
		t.Fatalf("bounds violation not caught: %+v", cqes)
	}
}

func TestOneSidedWriteToDeregisteredMR(t *testing.T) {
	r := newRig(t)
	local := r.pa.RegisterMR(64, AccessLocalWrite, nil)
	remote := r.pb.RegisterMR(64, AccessLocalWrite|AccessRemoteWrite, nil)
	rkey := remote.RKey()
	remote.Deregister()
	r.loop.At(0, func() {
		_ = r.qpA.PostSend(&SendWR{ID: 1, Op: OpWrite, MR: local, Length: 8, RemoteKey: rkey, Signaled: true})
	})
	r.loop.Run()
	cqes := poll(r.cqA)
	if len(cqes) != 1 || cqes[0].Status != StatusRemoteAccess {
		t.Fatalf("deregistered MR access not caught: %+v", cqes)
	}
}

func TestRecvBufferTooSmallErrors(t *testing.T) {
	r := newRig(t)
	sendMR := r.pa.RegisterMR(1024, AccessLocalWrite, nil)
	recvMR := r.pb.RegisterMR(1024, AccessLocalWrite, nil)
	r.loop.At(0, func() {
		_ = r.qpB.PostRecv(RecvWR{ID: 1, MR: recvMR, Length: 16})
		_ = r.qpA.PostSend(&SendWR{ID: 2, Op: OpSend, MR: sendMR, Length: 512, Signaled: true})
	})
	r.loop.Run()
	recvCQEs := poll(r.rqB)
	if len(recvCQEs) != 1 || recvCQEs[0].Status != StatusRecvLengthErr {
		t.Fatalf("want RECV_LENGTH_ERROR at receiver, got %+v", recvCQEs)
	}
	sendCQEs := poll(r.cqA)
	if len(sendCQEs) != 1 || sendCQEs[0].Status != StatusRecvLengthErr {
		t.Fatalf("want RECV_LENGTH_ERROR at sender, got %+v", sendCQEs)
	}
}

func TestSendQueueDepthEnforced(t *testing.T) {
	r := newRig(t)
	mr := r.pa.RegisterMR(64, AccessLocalWrite, nil)
	r.loop.At(0, func() {
		wrs := make([]*SendWR, 65)
		for i := range wrs {
			wrs[i] = &SendWR{ID: uint64(i), Op: OpSend, MR: mr, Length: 1}
		}
		if err := r.qpA.PostSend(wrs...); err == nil {
			t.Error("posting beyond MaxSendWR should fail")
		}
	})
	r.loop.Run()
}

func TestRecvQueueDepthEnforced(t *testing.T) {
	r := newRig(t)
	mr := r.pb.RegisterMR(64, AccessLocalWrite, nil)
	r.loop.At(0, func() {
		for i := 0; i < 64; i++ {
			if err := r.qpB.PostRecv(RecvWR{ID: uint64(i), MR: mr, Length: 1}); err != nil {
				t.Errorf("PostRecv %d: %v", i, err)
			}
		}
		if err := r.qpB.PostRecv(RecvWR{ID: 99, MR: mr, Length: 1}); err == nil {
			t.Error("posting beyond MaxRecvWR should fail")
		}
	})
	r.loop.Run()
}

func TestPostSendOnUnconnectedQPFails(t *testing.T) {
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	na := nw.AddNode("a")
	d := OpenDevice(na)
	pd := d.AllocPD()
	cq := d.CreateCQ(8)
	qp, err := d.CreateQP(pd, QPConfig{SendCQ: cq, RecvCQ: cq, MaxSendWR: 8, MaxRecvWR: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := qp.PostSend(&SendWR{ID: 1, Op: OpSend, Inline: []byte("x")}); err == nil {
		t.Fatal("PostSend on INIT QP should fail")
	}
}

func TestPostSendBadMRRejected(t *testing.T) {
	r := newRig(t)
	mr := r.pa.RegisterMR(16, AccessLocalWrite, nil)
	r.loop.At(0, func() {
		if err := r.qpA.PostSend(&SendWR{ID: 1, Op: OpSend, MR: mr, Offset: 8, Length: 16}); err == nil {
			t.Error("out-of-bounds send WR should be rejected")
		}
		if err := r.qpA.PostSend(&SendWR{ID: 2, Op: OpSend}); err == nil {
			t.Error("send WR without MR or inline should be rejected")
		}
	})
	r.loop.Run()
}

func TestManyMessagesArriveInOrder(t *testing.T) {
	r := newRig(t)
	const n = 50
	sendMR := r.pa.RegisterMR(n, AccessLocalWrite, nil)
	recvMR := r.pb.RegisterMR(n, AccessLocalWrite, nil)
	var got []byte
	r.loop.At(0, func() {
		for i := 0; i < n; i++ {
			_ = r.qpB.PostRecv(RecvWR{ID: uint64(i), MR: recvMR, Offset: i, Length: 1})
		}
		for i := 0; i < n; i++ {
			sendMR.Slice(i, 1)[0] = byte(i)
			if err := r.qpA.PostSend(&SendWR{ID: uint64(i), Op: OpSend, MR: sendMR, Offset: i, Length: 1, Signaled: i == n-1}); err != nil {
				t.Errorf("PostSend %d: %v", i, err)
			}
		}
	})
	r.loop.Run()
	for {
		cqes := poll(r.rqB)
		if cqes == nil {
			break
		}
		for _, e := range cqes {
			got = append(got, byte(e.WRID))
		}
	}
	if len(got) != n {
		t.Fatalf("received %d completions, want %d", len(got), n)
	}
	for i, b := range got {
		if b != byte(i) {
			t.Fatalf("completion order broken at %d: %v", i, got)
		}
	}
	for i := 0; i < n; i++ {
		if recvMR.Slice(i, 1)[0] != byte(i) {
			t.Fatalf("data order broken at %d", i)
		}
	}
}

func TestCQEventNotificationArmsOnce(t *testing.T) {
	r := newRig(t)
	sendMR := r.pa.RegisterMR(64, AccessLocalWrite, nil)
	recvMR := r.pb.RegisterMR(64, AccessLocalWrite, nil)
	events := 0
	r.rqB.OnEvent(func() { events++ })
	r.rqB.RequestNotify()
	r.loop.At(0, func() {
		_ = r.qpB.PostRecv(RecvWR{ID: 1, MR: recvMR, Length: 64})
		_ = r.qpB.PostRecv(RecvWR{ID: 2, MR: recvMR, Length: 64})
		_ = r.qpA.PostSend(&SendWR{ID: 1, Op: OpSend, MR: sendMR, Length: 8})
		_ = r.qpA.PostSend(&SendWR{ID: 2, Op: OpSend, MR: sendMR, Length: 8})
	})
	r.loop.Run()
	if events != 1 {
		t.Fatalf("completion channel fired %d times, want 1 (one-shot arm)", events)
	}
	// Re-arm with entries already queued: fires again immediately.
	r.rqB.RequestNotify()
	r.loop.Run()
	if events != 2 {
		t.Fatalf("re-armed channel fired %d times total, want 2", events)
	}
}

func TestCQOverflowDetected(t *testing.T) {
	r := newRig(t)
	small := r.db.CreateCQ(1)
	// Replace b's recv CQ via a fresh QP pair on port 8.
	var qpB2 *QP
	err := r.db.ListenCM(8, r.pb, func() QPConfig {
		return QPConfig{SendCQ: r.cqB, RecvCQ: small, MaxSendWR: 8, MaxRecvWR: 8}
	}, func(qp *QP) { qpB2 = qp })
	if err != nil {
		t.Fatal(err)
	}
	var qpA2 *QP
	r.loop.Post(func() {
		r.da.ConnectCM(r.db.Node(), 8, r.pa,
			QPConfig{SendCQ: r.cqA, RecvCQ: r.rqA, MaxSendWR: 8, MaxRecvWR: 8},
			func(qp *QP, err error) { qpA2 = qp })
	})
	r.loop.Run()
	if qpA2 == nil || qpB2 == nil {
		t.Fatal("second QP pair not established")
	}
	mrA := r.pa.RegisterMR(64, AccessLocalWrite, nil)
	mrB := r.pb.RegisterMR(64, AccessLocalWrite, nil)
	r.loop.Post(func() {
		for i := 0; i < 3; i++ {
			_ = qpB2.PostRecv(RecvWR{ID: uint64(i), MR: mrB, Length: 8})
			_ = qpA2.PostSend(&SendWR{ID: uint64(i), Op: OpSend, MR: mrA, Length: 8})
		}
	})
	r.loop.Run()
	if small.err != ErrCQOverrun {
		t.Fatalf("CQ overrun reported as %v, want ErrCQOverrun", small.err)
	}
	// The overrun is loud: the QP completing to the full CQ is failed, not
	// left waiting for the completion it lost; the QP beside it on other
	// CQs runs on, and the dead CQ takes no new QP.
	if qpB2.state != QPError {
		t.Fatalf("QP on the overrun CQ is %v, want ERROR", qpB2.state)
	}
	if r.qpB.state != QPReady {
		t.Fatalf("QP on healthy CQs is %v, want RTS", r.qpB.state)
	}
	if small.entries.Len() != 1 {
		t.Fatalf("overrun CQ holds %d entries, want the 1 that fit", small.entries.Len())
	}
	if _, err := r.db.CreateQP(r.pb, QPConfig{SendCQ: r.cqB, RecvCQ: small, MaxSendWR: 1, MaxRecvWR: 1}); !errors.Is(err, ErrCQOverrun) {
		t.Fatalf("CreateQP on the overrun CQ: %v, want ErrCQOverrun", err)
	}
}

func TestMRRegistrationChargesCPU(t *testing.T) {
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	na := nw.AddNode("a")
	d := OpenDevice(na)
	pd := d.AllocPD()
	ready := sim.Time(-1)
	loop.At(0, func() {
		pd.RegisterMR(1<<20, AccessLocalWrite, func() { ready = loop.Now() })
	})
	loop.Run()
	base := model.Default().RDMA.MemRegisterBase
	if ready < base {
		t.Fatalf("1MB registration completed at %v, want >= %v", ready, base)
	}
}

func TestOpcodeAndStatusStrings(t *testing.T) {
	if OpSend.String() != "SEND" || OpWrite.String() != "WRITE" || OpRecv.String() != "RECV" {
		t.Fatal("opcode strings wrong")
	}
	if StatusOK.String() != "OK" || StatusRNRRetryExceeded.String() != "RNR_RETRY_EXCEEDED" {
		t.Fatal("status strings wrong")
	}
	if QPReady.String() != "RTS" || QPError.String() != "ERROR" {
		t.Fatal("state strings wrong")
	}
}
