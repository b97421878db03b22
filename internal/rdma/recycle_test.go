package rdma

import (
	"bytes"
	"testing"

	"rubin/internal/raceflag"
)

// Tx entries and control replies are recycled records. These tests pin that
// reuse never shows: nothing arrives twice, completes twice, or carries
// another message's fields.

// secondPair connects one more QP pair between the rig's two devices; it
// shares their control-reply free lists with the first pair.
func secondPair(t *testing.T, r *rig) (a, b *QP) {
	t.Helper()
	firstB := r.qpB
	r.loop.Post(func() {
		r.da.ConnectCM(r.db.Node(), 7, r.pa,
			QPConfig{SendCQ: r.cqA, RecvCQ: r.rqA, MaxSendWR: 64, MaxRecvWR: 64, MaxInline: 256},
			func(qp *QP, err error) { a = qp })
	})
	r.loop.Run()
	b, r.qpB = r.qpB, firstB // the listener's onConn stored the new responder QP
	if a == nil || b == firstB {
		t.Fatal("second QP pair did not connect")
	}
	return a, b
}

// A SEND is RNR-NAKed and sits in its back-off while another QP pair on the
// same devices runs forty sends to completion: the NAK that was consumed
// goes back on the responder's free list and returns as those sends' acks,
// and their tx entries are retired and reused over and over. The retried
// SEND must arrive once, intact, and complete once — and the sends that
// follow it on its own QP, which reuse its retired entry, must too.
func TestRNRRetrySurvivesRecycledEntriesAndReplies(t *testing.T) {
	r := newRig(t)
	a2, b2 := secondPair(t, r)
	pool := r.pa.RegisterPool(2, 4096, AccessLocalWrite, nil)
	recv1 := r.pb.RegisterPool(16, 4096, AccessLocalWrite, nil)
	recv2 := r.pb.RegisterPool(64, 256, AccessLocalWrite, nil)
	first := bytes.Repeat([]byte{0xA1}, 512)
	copy(pool.Slice(0, len(first)), first)

	r.loop.Post(func() {
		// No receive posted yet: the first attempt draws an RNR NAK.
		_ = r.qpA.PostSend(&SendWR{ID: 100, Op: OpSend, MR: pool, Length: len(first), Signaled: true})
	})
	r.loop.After(int64EqDelay(), func() {
		if r.db.rnrNaks != 1 {
			t.Errorf("RNR NAKs before the churn = %d, want 1", r.db.rnrNaks)
		}
		for i := 0; i < 40; i++ {
			_ = b2.PostRecv(RecvWR{ID: uint64(i), MR: recv2, Offset: i * 256, Length: 256})
			_ = a2.PostSend(&SendWR{ID: uint64(i), Op: OpSend, Inline: bytes.Repeat([]byte{byte(i)}, 64), Signaled: true})
		}
		for i := 0; i < 11; i++ {
			_ = r.qpB.PostRecv(RecvWR{ID: uint64(200 + i), MR: recv1, Offset: i * 4096, Length: 4096})
		}
	})
	r.loop.Run()

	drain := func(cq *CQ) (all []CQE) {
		for cqes := poll(cq); cqes != nil; cqes = poll(cq) {
			all = append(all, cqes...)
		}
		return all
	}
	sends, recvs := drain(r.cqA), drain(r.rqB)
	count := func(cqes []CQE, qpn uint32, wrid uint64) (n int) {
		for _, e := range cqes {
			if e.Status != StatusOK {
				t.Fatalf("completion failed: %+v", e)
			}
			if e.QPN == qpn && e.WRID == wrid {
				n++
			}
		}
		return n
	}
	if len(sends) != 41 || count(sends, r.qpA.num, 100) != 1 {
		t.Fatalf("retried send completed %d times among %d send completions, want once among 41",
			count(sends, r.qpA.num, 100), len(sends))
	}
	if len(recvs) != 41 || count(recvs, r.qpB.num, 200) != 1 {
		t.Fatalf("retried send arrived %d times among %d receive completions, want once among 41",
			count(recvs, r.qpB.num, 200), len(recvs))
	}
	if !bytes.Equal(recv1.Slice(0, len(first)), first) {
		t.Fatal("retried send did not arrive intact")
	}
	for i := 0; i < 40; i++ {
		if !bytes.Equal(recv2.Slice(i*256, 64), bytes.Repeat([]byte{byte(i)}, 64)) {
			t.Fatalf("churn send %d corrupted", i)
		}
	}

	// Ten more on the first QP: they take the retired entry of the retried
	// send (and each other's) off the free list.
	for i := 1; i <= 10; i++ {
		msg := bytes.Repeat([]byte{byte(0xC0 + i)}, 100*i)
		copy(pool.Slice(4096, len(msg)), msg)
		wr := &SendWR{ID: uint64(100 + i), Op: OpSend, MR: pool, Offset: 4096, Length: len(msg), Signaled: true}
		r.loop.Post(func() { _ = r.qpA.PostSend(wr) })
		r.loop.Run()
		if cqes := poll(r.cqA); len(cqes) != 1 || cqes[0].WRID != wr.ID || cqes[0].Status != StatusOK || cqes[0].Bytes != len(msg) {
			t.Fatalf("send %d after the retry: completions %+v", i, cqes)
		}
		if !bytes.Equal(recv1.Slice(i*4096, len(msg)), msg) {
			t.Fatalf("send %d after the retry did not arrive intact", i)
		}
	}
	if r.qpA.sent != 11 || r.qpB.received != 11 || r.db.rnrNaks != 1 {
		t.Fatalf("sent %d, received %d, RNR NAKs %d: want 11, 11, 1", r.qpA.sent, r.qpB.received, r.db.rnrNaks)
	}
}

// An ack for a PSN that was already retired (a duplicate), or that was never
// sent, retires nothing: no completion, no freed slot, and not the entry of
// whatever send reuses the retired record.
func TestStaleAckIgnored(t *testing.T) {
	r := newRig(t)
	sendMR := r.pa.RegisterMR(1024, AccessLocalWrite, nil)
	recvMR := r.pb.RegisterPool(2, 1024, AccessLocalWrite, nil)
	r.loop.Post(func() {
		_ = r.qpB.PostRecv(RecvWR{ID: 1, MR: recvMR, Length: 1024})
		_ = r.qpA.PostSend(&SendWR{ID: 1, Op: OpSend, MR: sendMR, Length: 64, Signaled: true})
	})
	r.loop.Run()
	if cqes := poll(r.cqA); len(cqes) != 1 {
		t.Fatalf("first send: %+v", cqes)
	}
	ack := func(psn uint64) {
		r.da.deliver(r.db.Node(), &wireMsg{kind: wireAck, srcQPN: r.qpB.num, dstQPN: r.qpA.num, psn: psn}, ctrlWireBytes)
	}
	ack(0)  // PSN 0 again: retired
	ack(99) // never sent
	if r.qpA.sent != 1 || r.qpA.SendSlots() != 64 || r.cqA.entries.Len() != 0 {
		t.Fatalf("stale acks moved state: sent %d, slots %d, CQ depth %d", r.qpA.sent, r.qpA.SendSlots(), r.cqA.entries.Len())
	}
	// PSN 1 is in flight (no receive posted: it will be NAKed) when the
	// duplicate for PSN 0 arrives once more; it must not complete PSN 1.
	r.loop.Post(func() {
		_ = r.qpA.PostSend(&SendWR{ID: 2, Op: OpSend, MR: sendMR, Length: 64, Signaled: true})
	})
	r.loop.After(int64EqDelay(), func() {
		ack(0)
		if r.qpA.sent != 1 || r.qpA.SendSlots() != 63 {
			t.Errorf("duplicate ack retired the wrong send: sent %d, slots %d", r.qpA.sent, r.qpA.SendSlots())
		}
		_ = r.qpB.PostRecv(RecvWR{ID: 2, MR: recvMR, Offset: 1024, Length: 1024})
	})
	r.loop.Run()
	if cqes := poll(r.cqA); len(cqes) != 1 || cqes[0].WRID != 2 || r.qpA.sent != 2 {
		t.Fatalf("second send: %+v, sent %d", cqes, r.qpA.sent)
	}
}

func TestPollIntoShortBufferLeavesTheRestQueuedInOrder(t *testing.T) {
	r := newRig(t)
	sendMR := r.pa.RegisterMR(1024, AccessLocalWrite, nil)
	recvMR := r.pb.RegisterPool(5, 1024, AccessLocalWrite, nil)
	r.loop.Post(func() {
		for i := 0; i < 5; i++ {
			_ = r.qpB.PostRecv(RecvWR{ID: uint64(i), MR: recvMR, Offset: i * 1024, Length: 1024})
			_ = r.qpA.PostSend(&SendWR{ID: uint64(10 + i), Op: OpSend, MR: sendMR, Length: 8, Signaled: true})
		}
	})
	r.loop.Run()
	buf := make([]CQE, 2)
	var got []uint64
	for _, wantDepth := range []int{3, 1, 0} {
		n := r.cqA.Poll(buf)
		for _, e := range buf[:n] {
			got = append(got, e.WRID)
		}
		if r.cqA.entries.Len() != wantDepth {
			t.Fatalf("after polling %v: depth %d, want %d", got, r.cqA.entries.Len(), wantDepth)
		}
	}
	if n := r.cqA.Poll(buf); n != 0 {
		t.Fatalf("Poll of an empty CQ returned %d", n)
	}
	if r.cqA.Poll(nil) != 0 {
		t.Fatal("Poll into no buffer must take nothing")
	}
	if len(got) != 5 {
		t.Fatalf("polled %d completions, want 5", len(got))
	}
	for i, id := range got {
		if id != uint64(10+i) {
			t.Fatalf("completions polled as %v, want 10..14 in order", got)
		}
	}
}

// The allocation gate of the verbs layer: after warm-up, one signaled SEND
// with its ack and both polls allocates nothing, from a pool slot or inline
// — a poster that reuses its WRs, as rubin does, pays for WR storage once.
func TestSendAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the verbs layer's")
	}
	r := newRig(t)
	sendMR := r.pa.RegisterMR(4096, AccessLocalWrite, nil)
	recvMR := r.pb.RegisterMR(4096, AccessLocalWrite, nil)
	copy(sendMR.Slice(0, 1024), bytes.Repeat([]byte{7}, 1024))
	inline := bytes.Repeat([]byte{9}, 200)
	var buf [4]CQE
	for name, wr := range map[string]*SendWR{
		"slot":   {ID: 1, Op: OpSend, MR: sendMR, Length: 1024, Signaled: true},
		"inline": {ID: 2, Op: OpSend, Inline: inline, Signaled: true},
	} {
		send := func() {
			_ = r.qpB.PostRecv(RecvWR{ID: 1, MR: recvMR, Length: 4096})
			if name == "inline" {
				wr.Inline = inline // as a caller does: its own buffer, every time
			}
			if err := r.qpA.PostSend(wr); err != nil {
				t.Fatal(err)
			}
			r.loop.Run()
			if r.cqA.Poll(buf[:]) != 1 || r.rqB.Poll(buf[:]) != 1 || buf[0].Status != StatusOK {
				t.Fatalf("%s send did not complete on both sides", name)
			}
		}
		send()
		if allocs := testing.AllocsPerRun(100, send); allocs != 0 {
			t.Errorf("one signaled %s SEND + ack + both polls: %v allocs, want 0", name, allocs)
		}
	}
}
