package rdma

import (
	"bytes"
	"errors"
	"testing"
)

// Registered is not resident: an extent nobody wrote is backed on its
// first touch and reads as zeros, however deep into the region it lies.
func TestReadOfNeverWrittenExtentReturnsZeros(t *testing.T) {
	r := newRig(t)
	mr := r.pb.RegisterMR(8<<20, AccessLocalWrite, nil)
	copy(mr.Slice(0, 32), bytes.Repeat([]byte{0xFF}, 32))
	if got := mr.Slice(4<<20, 32); !bytes.Equal(got, make([]byte, 32)) {
		t.Fatalf("never-written bytes read as %x, want zeros", got)
	}
}

// A block is backed only as far as it has been touched, so a large message
// landing after a small one grows it: the bytes already there must survive.
func TestBlockGrowthKeepsEarlierBytes(t *testing.T) {
	r := newRig(t)
	sendMR := r.pa.RegisterMR(8192, AccessLocalWrite, nil)
	recvMR := r.pb.RegisterMR(8192, AccessLocalWrite, nil)
	small, large := []byte("small first"), bytes.Repeat([]byte{0x5A}, 4096)
	copy(sendMR.Slice(0, len(small)), small)
	copy(sendMR.Slice(1024, len(large)), large)
	r.loop.At(0, func() {
		_ = r.qpB.PostRecv(RecvWR{ID: 1, MR: recvMR, Length: 64})
		_ = r.qpB.PostRecv(RecvWR{ID: 2, MR: recvMR, Offset: 2048, Length: 4096})
		_ = r.qpA.PostSend(&SendWR{ID: 1, Op: OpSend, MR: sendMR, Length: len(small)})
		_ = r.qpA.PostSend(&SendWR{ID: 2, Op: OpSend, MR: sendMR, Offset: 1024, Length: len(large)})
	})
	r.loop.Run()
	if got := recvMR.Slice(0, len(small)); !bytes.Equal(got, small) {
		t.Fatalf("earlier bytes lost when the block grew: %q", got)
	}
	if !bytes.Equal(recvMR.Slice(2048, len(large)), large) {
		t.Fatal("large message corrupted")
	}
	if gap := recvMR.Slice(64, 1984); !bytes.Equal(gap, make([]byte, len(gap))) {
		t.Fatal("untouched bytes between the two messages are not zero")
	}
}

// Take gives a block's backing away: the taker's bytes stay what they were
// when the block is written again, the block reads as never written, and
// the other blocks of the pool keep theirs.
func TestTakeDetachesBlockBacking(t *testing.T) {
	r := newRig(t)
	pool := r.pa.RegisterPool(2, 1024, AccessLocalWrite, nil)
	copy(pool.Slice(0, 5), "first")
	copy(pool.Slice(1024, 5), "other")
	taken := pool.Take(0, 5)
	if string(taken) != "first" {
		t.Fatalf("Take returned %q", taken)
	}
	if got := pool.Slice(0, 5); !bytes.Equal(got, make([]byte, 5)) {
		t.Fatalf("a taken block reads %q, want zeros", got)
	}
	copy(pool.Slice(0, 5), "again")
	if string(taken) != "first" || string(pool.Slice(1024, 5)) != "other" {
		t.Fatalf("after rewriting the block: taken %q, neighbour %q", taken, pool.Slice(1024, 5))
	}
}

// Recycle takes a taken backing back zeroed: the taker's slice reads zeros
// at once, and the next first touch of any block that fits in it reuses it
// whole — Take hands out the backing's full capacity. A touch it cannot
// hold drops it for a backing at least twice its size, capped at the block.
func TestRecycleReusesAZeroedBacking(t *testing.T) {
	r := newRig(t)
	pool := r.pa.RegisterPool(2, 4096, AccessLocalWrite, nil)
	copy(pool.Slice(0, 100), bytes.Repeat([]byte{7}, 100))
	taken := pool.Take(0, 60)
	if len(taken) != 60 || cap(taken) != 100 {
		t.Fatalf("Take returned %d bytes of capacity %d, want 60 of 100", len(taken), cap(taken))
	}
	pool.Recycle(taken)
	if !bytes.Equal(taken[:cap(taken)], make([]byte, 100)) {
		t.Fatal("a recycled backing still reads its bytes")
	}
	if got := pool.Slice(4096, 80); &got[0] != &taken[0] || !bytes.Equal(got, make([]byte, 80)) {
		t.Fatal("the next first touch that fits did not reuse the recycled backing, zeroed")
	}
	pool.Recycle(pool.Take(4096, 80))
	if got := pool.Slice(0, 150); &got[0] == &taken[0] || cap(pool.Take(0, 150)) != 200 {
		t.Fatal("a touch past the recycled backing did not replace it with one twice its size")
	}
	pool.Recycle(pool.Take(0, 150))
	if got := pool.Take(4096, 4096); cap(got) != 4096 {
		t.Fatalf("a touch of the whole block got capacity %d, want the block size 4096", cap(got))
	}
}

func TestExtentCrossingBlockRejected(t *testing.T) {
	r := newRig(t)
	pool := r.pa.RegisterPool(2, 64, AccessLocalWrite, nil)
	if pool.Len() != 128 {
		t.Fatalf("pool length %d, want 128", pool.Len())
	}
	r.loop.At(0, func() {
		if err := r.qpA.PostRecv(RecvWR{ID: 1, MR: pool, Offset: 32, Length: 64}); !errors.Is(err, ErrBadMR) {
			t.Errorf("PostRecv across a block boundary: %v, want ErrBadMR", err)
		}
		if err := r.qpA.PostSend(&SendWR{ID: 2, Op: OpSend, MR: pool, Offset: 32, Length: 64}); !errors.Is(err, ErrBadMR) {
			t.Errorf("PostSend across a block boundary: %v, want ErrBadMR", err)
		}
		if err := r.qpA.PostRecv(RecvWR{ID: 3, MR: pool, Offset: 64, Length: 64}); err != nil {
			t.Errorf("PostRecv of a whole block: %v", err)
		}
	})
	r.loop.Run()
}

// The NIC reads a posted send slot in place, so the bytes must still be the
// posted ones when an RNR retry re-sends them — whatever the application
// does meanwhile to the slots it does own.
func TestInPlaceSendSurvivesRNRRetryWhileOtherSlotRewritten(t *testing.T) {
	r := newRig(t)
	pool := r.pa.RegisterPool(2, 4096, AccessLocalWrite, nil)
	recvMR := r.pb.RegisterPool(2, 4096, AccessLocalWrite, nil)
	first := bytes.Repeat([]byte{0xA1}, 512)
	copy(pool.Slice(0, len(first)), first)
	copy(pool.Slice(4096, 8), "old data")
	r.loop.Post(func() {
		// No receive posted yet: the first attempt draws an RNR NAK.
		_ = r.qpA.PostSend(&SendWR{ID: 1, Op: OpSend, MR: pool, Length: len(first), Signaled: true})
	})
	second := bytes.Repeat([]byte{0xB2}, 4096)
	r.loop.After(int64EqDelay(), func() {
		if r.db.rnrNaks == 0 {
			t.Error("slot rewritten before the first attempt was NAKed")
		}
		copy(pool.Slice(4096, len(second)), second) // grows slot 1
		_ = r.qpA.PostSend(&SendWR{ID: 2, Op: OpSend, MR: pool, Offset: 4096, Length: len(second), Signaled: true})
		_ = r.qpB.PostRecv(RecvWR{ID: 1, MR: recvMR, Length: 4096})
		_ = r.qpB.PostRecv(RecvWR{ID: 2, MR: recvMR, Offset: 4096, Length: 4096})
	})
	r.loop.Run()
	if cqes := poll(r.cqA); len(cqes) != 2 || cqes[0].Status != StatusOK || cqes[1].Status != StatusOK {
		t.Fatalf("sends did not complete: %+v", cqes)
	}
	if !bytes.Equal(recvMR.Slice(0, len(first)), first) {
		t.Fatal("retried send did not arrive intact")
	}
	if !bytes.Equal(recvMR.Slice(4096, len(second)), second) {
		t.Fatal("second slot's message corrupted")
	}
}

// An inline payload is copied into the WR by PostSend: the caller may
// reuse its buffer at once, however long the QP takes to reach the WR.
func TestInlinePayloadSnapshottedAtPostSend(t *testing.T) {
	r := newRig(t)
	sendMR := r.pa.RegisterMR(64<<10, AccessLocalWrite, nil)
	recvMR := r.pb.RegisterPool(2, 64<<10, AccessLocalWrite, nil)
	buf := []byte("posted bytes")
	want := append([]byte(nil), buf...)
	r.loop.At(0, func() {
		_ = r.qpB.PostRecv(RecvWR{ID: 1, MR: recvMR, Length: 64 << 10})
		_ = r.qpB.PostRecv(RecvWR{ID: 2, MR: recvMR, Offset: 64 << 10, Length: 64 << 10})
		// A 64 KiB send keeps the QP's transmit pipeline busy.
		_ = r.qpA.PostSend(&SendWR{ID: 1, Op: OpSend, MR: sendMR, Length: 64 << 10})
		if err := r.qpA.PostSend(&SendWR{ID: 2, Op: OpSend, Inline: buf, Signaled: true}); err != nil {
			t.Errorf("inline PostSend: %v", err)
		}
		copy(buf, "REUSED BYTES")
	})
	r.loop.Run()
	if got := recvMR.Slice(64<<10, len(want)); !bytes.Equal(got, want) {
		t.Fatalf("inline send carried %q, want %q", got, want)
	}
}
