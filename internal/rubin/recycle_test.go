package rubin

import (
	"bytes"
	"runtime"
	"testing"

	"rubin/internal/raceflag"
)

// A channel's send WRs live in a table indexed seq mod SendWRs. With a pool
// of four and sixty-four back-to-back sends — inline and slotted mixed, the
// sender stalling on ErrWouldBlock and resuming on OpSend — the table wraps
// sixteen times; if it ever handed out a WR the QP still owned, a message
// would arrive with a later message's bytes, twice, or not at all.
func TestSmallWRPoolNeverReusesALiveWR(t *testing.T) {
	r := newRig(t, nil)
	cfg := DefaultConfig()
	cfg.SendWRs = 4
	cfg.SignalInterval = 3
	client, server := r.connect(t, cfg)
	var got [][]byte
	pumpReceiver(r.selB, server, &got)

	const total = 64
	message := func(i int) []byte {
		size := 40 + i // inline
		if i%3 == 0 {
			size = 1000 + 100*i // pool slot
		}
		return bytes.Repeat([]byte{byte(i + 1)}, size)
	}
	next, stalls := 0, 0
	key := r.selA.Register(client, 0, nil)
	pump := func() {
		for next < total {
			buf := message(next)
			err := client.Send(buf)
			if err == ErrWouldBlock {
				stalls++
				key.SetInterest(OpSend)
				return
			}
			if err != nil {
				t.Errorf("Send %d: %v", next, err)
				return
			}
			for j := range buf {
				buf[j] = 0xEE // the caller's buffer is the caller's again
			}
			next++
		}
	}
	r.selA.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			if k.Ready()&OpSend != 0 {
				k.ResetReady(OpSend)
				k.SetInterest(0)
				pump()
			}
		}
	})
	r.loop.Post(pump)
	r.loop.Run()
	if stalls == 0 {
		t.Fatal("a pool of four never stalled sixty-four sends: the table did not wrap under pressure")
	}
	if len(got) != total {
		t.Fatalf("received %d messages, want %d", len(got), total)
	}
	for i, msg := range got {
		if !bytes.Equal(msg, message(i)) {
			t.Fatalf("message %d arrived as %d × %#x, want %d × %#x", i, len(msg), msg[0], len(message(i)), byte(i+1))
		}
	}
}

// The one copy of an inline send is taken inside Send: whatever the caller
// does to its buffer afterwards — here at once, long before the end-of-turn
// doorbell — is not what travels.
func TestInlineSendCopiesInsideSend(t *testing.T) {
	r := newRig(t, nil)
	client, server := r.connect(t, DefaultConfig())
	var got [][]byte
	pumpReceiver(r.selB, server, &got)
	buf := []byte("the bytes at the time of Send")
	want := append([]byte(nil), buf...)
	r.loop.Post(func() {
		if err := client.Send(buf); err != nil {
			t.Errorf("Send: %v", err)
		}
		copy(buf, "OVERWRITTEN RIGHT AFTERWARDS!")
	})
	r.loop.Run()
	if len(got) != 1 || !bytes.Equal(got[0], want) {
		t.Fatalf("delivered %q, want %q", got, want)
	}
}

// discardReceiver registers ch for OpReceive on sel and drops every message
// it receives, counting them: a receiver that keeps nothing of its own.
func discardReceiver(sel *Selector, ch *Channel) *int {
	received := new(int)
	sel.Register(ch, OpReceive, nil)
	sel.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			for {
				if _, ok := k.Channel().(*Channel).Receive(); !ok {
					break
				}
				*received++
			}
		}
	})
	return received
}

// The allocation gate of the channel layer. One message Send → Receive
// costs no allocation in either mode: the landing backs its slot with the
// memory the previous message gave back at the next Receive, and the
// zero-copy model (Selector.CopyPerKB = 0) removes only the modeled charge
// for §IV's remaining copy, not a host one. It cost one, the landed
// backing, while a received message was the receiver's to keep.
func TestMessageAllocatesOnlyTheReceiveCopy(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the channel's")
	}
	for _, zeroCopy := range []bool{false, true} {
		for name, size := range map[string]int{"inline": 128, "slot": 4096} {
			r := newRig(t, zeroCopyModel(zeroCopy))
			cfg := DefaultConfig()
			client, server := r.connect(t, cfg)
			received := discardReceiver(r.selB, server)
			msg := bytes.Repeat([]byte{5}, size)
			message := func() {
				if err := client.Send(msg); err != nil {
					t.Fatal(err)
				}
				r.loop.Run()
			}
			// Warm-up: one full turn of the WR table and the recv ring, so
			// every lazily made record exists.
			for i := 0; i < 2*cfg.SendWRs; i++ {
				message()
			}
			allocs := testing.AllocsPerRun(200, message)
			t.Logf("zerocopy=%v %s: %v allocs per message", zeroCopy, name, allocs)
			if allocs > 0 {
				t.Errorf("zerocopy=%v %s: %v allocs per message, want 0", zeroCopy, name, allocs)
			}
			if *received != 2*cfg.SendWRs+201 {
				t.Fatalf("zerocopy=%v %s: received %d messages", zeroCopy, name, *received)
			}
		}
	}
}

// A receive slot is backed only while a message sits in it, and a landed
// backing goes back to the receive region at the channel's next Receive,
// where the next landing takes it up again. So the first lap of the ring
// costs what every later lap does, plus one receive backing grown to the
// message's size, which every later landing reuses. Were a slot to keep a
// backing of its own, the first lap would back every slot of the ring. Every
// send is signaled, so one send slot carries them all and the first lap
// backs that one slot besides.
func TestFirstLapOfTheRingAllocatesLikeTheNext(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the channel's")
	}
	for _, zeroCopy := range []bool{false, true} {
		r := newRig(t, zeroCopyModel(zeroCopy))
		cfg := DefaultConfig()
		cfg.SignalInterval = 1
		client, server := r.connect(t, cfg)
		received := discardReceiver(r.selB, server)
		// One inline message first makes the WR table and the queues.
		if err := client.Send([]byte("warm-up")); err != nil {
			t.Fatal(err)
		}
		r.loop.Run()
		msg := bytes.Repeat([]byte{5}, 32<<10)
		lap := func() uint64 {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1)) // as AllocsPerRun does
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < cfg.RecvWRs; i++ {
				if err := client.Send(msg); err != nil {
					t.Fatal(err)
				}
				r.loop.Run()
			}
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		first, second := lap(), lap()
		t.Logf("zerocopy=%v: first lap %d B, second lap %d B", zeroCopy, first, second)
		const stray = 1 << 10 // the test runtime's own odd allocations
		if first > second+2*uint64(len(msg))+stray {
			t.Errorf("zerocopy=%v: the first lap of the receive ring allocated %d B, the second %d B: want at most one send slot and one receive backing (%d B each) more",
				zeroCopy, first, second, len(msg))
		}
		if *received != 2*cfg.RecvWRs+1 {
			t.Fatalf("zerocopy=%v: received %d messages, want %d", zeroCopy, *received, 2*cfg.RecvWRs+1)
		}
	}
}
