package rubin

import (
	"bytes"
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
	cfg := DefaultConfig(r.params)
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
	client, server := r.connect(t, DefaultConfig(r.params))
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

// The allocation gate of the channel layer. One message Send → Receive
// costs one allocation, and it is the modeled one: the receive copy out of
// the registered buffer (§IV's one remaining copy), or with ZeroCopyReceive
// the fresh backing of the slot whose bytes MR.Take handed upward.
func TestMessageAllocatesOnlyTheReceiveCopy(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the channel's")
	}
	for _, zeroCopy := range []bool{false, true} {
		for name, size := range map[string]int{"inline": 128, "slot": 4096} {
			r := newRig(t, nil)
			cfg := DefaultConfig(r.params)
			cfg.ZeroCopyReceive = zeroCopy
			client, server := r.connect(t, cfg)
			r.selB.Register(server, OpReceive, nil)
			received := 0
			r.selB.Select(func(keys []*SelectionKey) {
				for _, k := range keys {
					for {
						if _, ok := k.Channel().(*Channel).Receive(); !ok {
							break
						}
						received++
					}
				}
			})
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
			if allocs > 1 {
				t.Errorf("zerocopy=%v %s: %v allocs per message, want <= 1", zeroCopy, name, allocs)
			}
			if received != 2*cfg.SendWRs+201 {
				t.Fatalf("zerocopy=%v %s: received %d messages", zeroCopy, name, received)
			}
		}
	}
}
