package transport

import (
	"bytes"
	"math/rand"
	"testing"

	"rubin/internal/model"
	"rubin/internal/raceflag"
	"rubin/internal/sim"
)

// Framing under short writes, and the lending rule one layer below
// msgnet's TestDeliveredBytesBelongToReceiver. With an 8 KiB socket buffer
// almost every flush ends in a short write: out advances by what was
// written and the batch merges into one entry holding the rest. 500
// messages of 0 B … 64 KiB go out back to back, the sender scribbling over
// each buffer as soon as Send returns, the receiver copying every message
// in its callback and keeping the lent slice too: all arrive whole, in
// order and byte-equal, and no lent slice still holds its message once its
// callback has returned (zeroed then, it may since hold later bytes).
func TestTCPFramingSurvivesShortWrites(t *testing.T) {
	params := model.Default()
	params.TCP.SocketBuffer = 8 << 10
	r := newRigWith(t, KindTCP, 2, DefaultOptions(), params)
	client, server := r.pair(t, 700)
	var got, lent [][]byte
	server.OnMessage(func(m []byte) { got, lent = append(got, bytes.Clone(m)), append(lent, m) })
	drains := 0
	client.OnDrain(func() { drains++ })

	const total = 500
	rng := rand.New(rand.NewSource(1))
	want := make([][]byte, total)
	buf := make([]byte, 64<<10)
	deepest, nudges := 0, 0
	var nudge func()
	nudge = func() {
		// A short write that fills the window gets no writability edge
		// (ROADMAP O15(3)): only the flush a later Send arms finds the
		// window shut and asks for one. So a sender with a backlog keeps
		// sending — here empty messages, checked like the rest.
		if client.Unsent() == 0 {
			return
		}
		nudges++
		if err := client.Send(nil); err != nil {
			t.Errorf("Send: %v", err)
			return
		}
		r.loop.After(20*sim.Microsecond, nudge)
	}
	r.loop.Post(func() {
		for i := range want {
			msg := buf[:rng.Intn(len(buf)+1)]
			rng.Read(msg)
			want[i] = bytes.Clone(msg)
			if err := client.Send(msg); err != nil {
				t.Fatalf("Send %d: %v", i, err)
			}
			for j := range msg {
				msg[j] = 0xEE // the caller's buffer is the caller's again
			}
		}
		deepest = client.Unsent()
		r.loop.Post(nudge)
	})
	r.loop.Run()
	if deepest != total || client.Unsent() != 0 || drains == 0 {
		t.Fatalf("Unsent %d at its deepest and %d at rest, OnDrain fired %d times; want %d, 0, > 0", deepest, client.Unsent(), drains, total)
	}
	if len(got) != total+nudges {
		t.Fatalf("delivered %d messages, want %d + %d", len(got), total, nudges)
	}
	for i, m := range got {
		if i < total && !bytes.Equal(m, want[i]) || i >= total && len(m) != 0 {
			t.Fatalf("message %d arrived as %d bytes, corrupted or misframed", i, len(m))
		}
		if len(m) >= 8 && bytes.Equal(lent[i], m) {
			t.Fatalf("message %d still reads its bytes after its callback returned", i)
		}
	}
}

// Between Send and OnMessage a tcp-nio message costs one allocation — the
// delivered copy, which a receiver that keeps a message makes itself, since
// the message is lent only until its callback returns — whatever its size,
// and a batch costs one per message: the user and socket buffers stay, the
// segments are recycled, every callback on the way is bound once, and the
// stack delivers in place from its receive buffer.
func TestTCPMessageAllocatesOnlyTheDeliveredCopy(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the path's")
	}
	for _, tc := range []struct {
		name        string
		size, count int
	}{{"one 1 KB message", 1000, 1}, {"a batch of ten", 1000, 10}, {"one 100 KiB message", 100 << 10, 1}} {
		r := newRig(t, KindTCP, 2, DefaultOptions())
		client, server := r.pair(t, 700)
		received := 0
		var kept []byte
		server.OnMessage(func(m []byte) {
			received += len(m)
			kept = bytes.Clone(m)
		})
		msg := bytes.Repeat([]byte{5}, tc.size)
		round := func() {
			for i := 0; i < tc.count; i++ {
				if err := client.Send(msg); err != nil {
					t.Fatal(err)
				}
			}
			r.loop.Run()
		}
		for i := 0; i < 4; i++ {
			round() // warm-up: buffers grown, rings and records made
		}
		allocs := testing.AllocsPerRun(100, round)
		t.Logf("%s: %v allocs", tc.name, allocs)
		if allocs != float64(tc.count) {
			t.Errorf("%s: %v allocs, want %d", tc.name, allocs, tc.count)
		}
		if received != 105*tc.count*tc.size {
			t.Fatalf("%s: received %d bytes, want %d", tc.name, received, 105*tc.count*tc.size)
		}
		if !bytes.Equal(kept, msg) {
			t.Fatalf("%s: the kept copy of the last message changed after its callback returned", tc.name)
		}
	}
}
