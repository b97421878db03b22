package transport

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"rubin/internal/model"
	"rubin/internal/raceflag"
	"rubin/internal/sim"
)

// turnRig is a tcp-nio server stack with three accepted connections,
// registered as a, b and c, each holding one message its socket never
// signalled: the test queues their keys itself. turns lists, per select
// turn, the connections it delivered from.
type turnRig struct {
	*rig
	s       *tcpStack
	a, b, c *tcpConn
	turns   [][]string
	onMsg   map[*tcpConn]func() // runs inside the turn, after the delivery is recorded
}

func newTurnRig(t *testing.T) *turnRig {
	t.Helper()
	tr := &turnRig{rig: newRig(t, KindTCP, 2, DefaultOptions()), onMsg: map[*tcpConn]func(){}}
	tr.s = tr.stacks[1].(*tcpStack)
	var accepted []*tcpConn
	if err := tr.s.Listen(700, func(c Conn) { accepted = append(accepted, c.(*tcpConn)) }); err != nil {
		t.Fatal(err)
	}
	var clients []Conn
	tr.loop.Post(func() {
		for range 3 {
			tr.stacks[0].Dial(tr.nodes[1], 700, func(c Conn, err error) {
				if err != nil {
					t.Errorf("Dial: %v", err)
					return
				}
				clients = append(clients, c)
			})
		}
	})
	tr.loop.Run()
	if len(accepted) != 3 || len(clients) != 3 {
		t.Fatalf("%d accepted, %d dialled, want 3 and 3", len(accepted), len(clients))
	}
	tr.a, tr.b, tr.c = accepted[0], accepted[1], accepted[2]
	last := sim.Time(-1)
	for i, tc := range accepted {
		name := string(rune('a' + i))
		tc.conn.OnReadable(nil)
		tc.OnMessage(func([]byte) {
			if now := tr.loop.Now(); now != last {
				last = now
				tr.turns = append(tr.turns, nil)
			}
			tr.turns[len(tr.turns)-1] = append(tr.turns[len(tr.turns)-1], name)
			if fn := tr.onMsg[tc]; fn != nil {
				fn()
			}
		})
	}
	tr.loop.Post(func() {
		for _, c := range clients {
			_ = c.Send([]byte("x"))
		}
	})
	tr.loop.Run()
	for _, tc := range accepted {
		if tc.conn.Readable() == 0 || tc.key.queued {
			t.Fatal("a message was not left unread and unsignalled")
		}
	}
	return tr
}

// turnsCharged is how many select turns the server stack, stack 1, has
// scheduled.
func (r *rig) turnsCharged() int {
	return int(r.nodes[1].CPU.Snapshot()[model.Dispatch] / r.nw.Params().Selector.NIODispatch)
}

// A listener's key is ready for OpAccept once an inbound connection is
// established; the select turn accepts it and registers it for reads.
func TestAcceptViaSelector(t *testing.T) {
	r := newRig(t, KindTCP, 2, DefaultOptions())
	s := r.stacks[1].(*tcpStack)
	var accepted *tcpConn
	if err := s.Listen(700, func(c Conn) { accepted = c.(*tcpConn) }); err != nil {
		t.Fatal(err)
	}
	lk := s.keys[0]
	r.loop.Post(func() {
		r.stacks[0].Dial(r.nodes[1], 700, func(_ Conn, err error) {
			if err != nil {
				t.Errorf("Dial: %v", err)
			}
		})
	})
	for lk.backlog.Len() == 0 && r.loop.Step() {
	}
	if lk.ready&opAccept == 0 || !lk.queued || accepted != nil {
		t.Fatalf("established: ready %b, queued %v, accepted %v; want OpAccept, queued, not yet accepted",
			lk.ready, lk.queued, accepted != nil)
	}
	r.loop.Run()
	if accepted == nil || !accepted.conn.Established() {
		t.Fatal("the turn did not accept an established connection")
	}
	if lk.ready != 0 || lk.backlog.Len() != 0 || len(s.keys) != 2 || s.keys[1] != &accepted.key || accepted.key.interest != opRead {
		t.Fatalf("after the turn: listener ready %b, backlog %d, %d keys; want none, empty, listener's and the read-registered connection's",
			lk.ready, lk.backlog.Len(), len(s.keys))
	}
}

// An echo through both stacks' selectors comes back whole.
func TestReadWriteThroughSelector(t *testing.T) {
	r := newRig(t, KindTCP, 2, DefaultOptions())
	client, server := r.pair(t, 700)
	server.OnMessage(func(m []byte) { _ = server.Send(m) })
	var got []byte
	client.OnMessage(func(m []byte) { got = append(got, m...) })
	msg := bytes.Repeat([]byte("nio!"), 1000)
	before := r.turnsCharged()
	r.loop.Post(func() { _ = client.Send(msg) })
	r.loop.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: got %d bytes, want %d", len(got), len(msg))
	}
	if r.turnsCharged() == before {
		t.Fatal("the server echoed without a select turn")
	}
}

// Once a connection's key is cancelled, what arrives on its socket is
// neither delivered nor given a select turn.
func TestCancelStopsDelivery(t *testing.T) {
	r := newRig(t, KindTCP, 2, DefaultOptions())
	client, server := r.pair(t, 700)
	var got []string
	server.OnMessage(func(m []byte) { got = append(got, string(m)) })
	r.loop.Post(func() { _ = client.Send([]byte("one")) })
	r.loop.Run()
	tc := server.(*tcpConn)
	tc.key.Cancel()
	before := r.turnsCharged()
	r.loop.Post(func() { _ = client.Send([]byte("two")) })
	r.loop.Run()
	if !reflect.DeepEqual(got, []string{"one"}) || tc.conn.Readable() == 0 {
		t.Fatalf("delivered %q, %d bytes left unread; want only \"one\", \"two\" unread", got, tc.conn.Readable())
	}
	if turns := r.turnsCharged() - before; turns != 0 || tc.key.queued {
		t.Fatalf("cancelled key: %d turns, queued %v; want none", turns, tc.key.queued)
	}
}

// A turn takes every queued key and leaves the ready set empty: the next
// turn finds nothing to serve.
func TestSelectNowDrainsReadySet(t *testing.T) {
	tr := newTurnRig(t)
	before := tr.turnsCharged()
	tr.loop.Post(func() {
		tr.c.key.signal(opRead)
		tr.a.key.signal(opRead)
		if tr.s.queued != 2 {
			t.Errorf("%d keys queued, want 2", tr.s.queued)
		}
	})
	tr.loop.Run()
	if want := [][]string{{"a", "c"}}; !reflect.DeepEqual(tr.turns, want) {
		t.Fatalf("turns = %v, want %v", tr.turns, want)
	}
	if len(tr.s.turn) != 2 || tr.s.queued != 0 || tr.a.key.queued || tr.c.key.queued || tr.a.key.ready != 0 || tr.c.key.ready != 0 {
		t.Fatalf("the turn took %d keys and left %d queued; want 2 taken, none left", len(tr.s.turn), tr.s.queued)
	}
	if turns := tr.turnsCharged() - before; turns != 1 {
		t.Fatalf("%d turns, want 1", turns)
	}
}

// One stack's single selector serves every connection of its listener.
func TestMultipleChannelsOneSelector(t *testing.T) {
	const nConns = 5
	r := newRig(t, KindTCP, 2, DefaultOptions())
	s := r.stacks[1].(*tcpStack)
	received := map[byte]int{}
	err := s.Listen(700, func(c Conn) {
		c.OnMessage(func(m []byte) {
			for _, b := range m {
				received[b]++
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	var clients []Conn
	r.loop.Post(func() {
		for range nConns {
			r.stacks[0].Dial(r.nodes[1], 700, func(c Conn, err error) {
				if err != nil {
					t.Errorf("Dial: %v", err)
					return
				}
				clients = append(clients, c)
			})
		}
	})
	r.loop.Run()
	if len(clients) != nConns || len(s.keys) != 1+nConns {
		t.Fatalf("%d clients connected, %d keys registered; want %d and %d", len(clients), len(s.keys), nConns, 1+nConns)
	}
	before := r.turnsCharged()
	r.loop.Post(func() {
		for i, c := range clients {
			_ = c.Send(bytes.Repeat([]byte{byte('a' + i)}, 10))
		}
	})
	r.loop.Run()
	if len(received) != nConns {
		t.Fatalf("received bytes from %d connections, want %d (%v)", len(received), nConns, received)
	}
	for b, n := range received {
		if n != 10 {
			t.Fatalf("connection %c delivered %d bytes, want 10", b, n)
		}
	}
	if r.turnsCharged() == before {
		t.Fatal("no select turn charged")
	}
}

// What a turn makes ready is the next turn's, and a turn takes its keys in
// registration order whatever order they became ready in.
func TestKeyMadeReadyDuringTurnWaitsForNextTurn(t *testing.T) {
	tr := newTurnRig(t)
	tr.onMsg[tr.c] = func() {
		tr.b.key.signal(opRead)
		tr.a.key.signal(opRead)
	}
	before := tr.turnsCharged()
	tr.loop.Post(func() { tr.c.key.signal(opRead) })
	tr.loop.Run()
	if want := [][]string{{"c"}, {"a", "b"}}; !reflect.DeepEqual(tr.turns, want) {
		t.Fatalf("turns = %v, want %v", tr.turns, want)
	}
	if turns := tr.turnsCharged() - before; tr.s.queued != 0 || turns != 2 {
		t.Fatalf("idle selector: %d keys queued after %d turns, want 0 after 2", tr.s.queued, turns)
	}
}

// Readiness is level-triggered: a key the turn leaves ready is queued for
// the next turn, which consumes it.
func TestKeyLeftReadyIsQueuedAgain(t *testing.T) {
	tr := newTurnRig(t)
	tr.onMsg[tr.a] = func() { tr.a.key.ready |= opRead } // after the drain consumed it
	before := tr.turnsCharged()
	tr.loop.Post(func() { tr.a.key.signal(opRead) })
	tr.loop.Run()
	if turns := tr.turnsCharged() - before; turns != 2 || tr.a.key.ready != 0 || tr.a.key.queued {
		t.Fatalf("%d turns, a left ready %b, queued %v; want 2 turns, a consumed", turns, tr.a.key.ready, tr.a.key.queued)
	}
}

// A key cancelled during a turn it is part of is not queued again though
// its readiness was never consumed, and one cancelled while waiting for the
// next turn is not served; the key that stays registered is.
func TestKeyCancelledDuringTurnIsDropped(t *testing.T) {
	tr := newTurnRig(t)
	tr.onMsg[tr.a] = func() {
		tr.c.key.signal(opRead) // queued for the next turn ...
		tr.c.Close()            // ... and gone before it
		tr.b.Close()            // in this turn, still ready
	}
	tr.loop.Post(func() {
		tr.b.key.signal(opRead)
		tr.a.key.signal(opRead)
	})
	tr.loop.Run()
	if want := [][]string{{"a"}}; !reflect.DeepEqual(tr.turns, want) {
		t.Fatalf("turns = %v, want %v", tr.turns, want)
	}
	if tr.b.key.ready&opRead == 0 {
		t.Fatal("b's readiness was consumed: the test shows nothing")
	}
	// The last turn, the one c was queued for, served no key.
	if len(tr.s.turn) != 0 || tr.s.queued != 0 || tr.b.key.queued || tr.c.key.queued {
		t.Fatalf("last turn served %d keys; %d still queued", len(tr.s.turn), tr.s.queued)
	}
	if len(tr.s.keys) != 2 || slices.Contains(tr.s.keys, &tr.b.key) || slices.Contains(tr.s.keys, &tr.c.key) {
		t.Fatalf("%d keys registered, want the listener's and a's", len(tr.s.keys))
	}
	tr.loop.Post(func() {
		tr.b.key.signal(opRead)
		tr.c.key.signal(opRead)
	})
	tr.loop.Run()
	if tr.s.queued != 0 || len(tr.turns) != 1 {
		t.Fatalf("a cancelled key was queued or served: turns = %v", tr.turns)
	}
}

// A peer's close is read readiness: the key is queued with OpRead before
// the turn that reads the close and tears the connection down.
func TestPeerCloseSignalsRead(t *testing.T) {
	r := newRig(t, KindTCP, 2, DefaultOptions())
	client, server := r.pair(t, 700)
	tc := server.(*tcpConn)
	closed := false
	server.OnClose(func() { closed = true })
	r.loop.Post(client.Close)
	for !tc.peerClosed && r.loop.Step() {
	}
	if !tc.peerClosed || tc.key.ready&opRead == 0 || !tc.key.queued || closed {
		t.Fatalf("peer close seen %v: ready %b, queued %v, torn down %v; want read-ready, queued, not yet torn down",
			tc.peerClosed, tc.key.ready, tc.key.queued, closed)
	}
	r.loop.Run()
	if !closed || !tc.key.cancelled {
		t.Fatal("the turn did not tear the connection down")
	}
}

// A socket with room registered for OpWrite is ready at once; the turn
// consumes the bit and puts the interest back to OpRead.
func TestOpWriteReadyImmediatelyOnIdleSocket(t *testing.T) {
	r := newRig(t, KindTCP, 2, DefaultOptions())
	client, _ := r.pair(t, 700)
	k := &client.(*tcpConn).key
	k.setInterest(opRead | opWrite)
	if k.ready&opWrite == 0 || !k.queued {
		t.Fatalf("ready %b, queued %v: an idle socket is writable at registration", k.ready, k.queued)
	}
	r.loop.Run()
	if k.interest != opRead || k.ready != 0 || k.queued {
		t.Fatalf("after the turn: interest %b, ready %b, queued %v; want OpRead, none, no", k.interest, k.ready, k.queued)
	}
}

// The ready set is a flag per key and the turn's key list one reused slice:
// a select turn allocates nothing.
func TestSelectTurnAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the selector's")
	}
	tr := newTurnRig(t)
	turn := func() {
		tr.a.key.signal(opRead)
		tr.c.key.signal(opRead)
		tr.loop.Run()
	}
	turn() // warm-up: delivers the held messages
	before := tr.turnsCharged()
	if allocs := testing.AllocsPerRun(200, turn); allocs != 0 {
		t.Errorf("one select turn of two keys: %v allocs, want 0", allocs)
	}
	if turns := tr.turnsCharged() - before; turns != 201 {
		t.Fatalf("%d turns, want 201", turns)
	}
}
