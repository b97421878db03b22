package msgnet

import (
	"bytes"
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
)

// lendingConn hands every frame sent on it straight to the peer at the other
// end, lent from one buffer that it overwrites as soon as the delivery
// returns: a substrate that reuses its receive memory for the next frame.
type lendingConn struct {
	nullConn
	to  *Peer
	buf []byte
}

func (c *lendingConn) Send(f []byte) error {
	c.buf = append(c.buf[:0], f...)
	c.to.dispatch(c.buf)
	for i := range c.buf {
		c.buf[i] = 0xEE
	}
	return nil
}

// lendingPair is a sending peer wired to a receiving one over a lendingConn.
func lendingPair(opts Options) (loop *sim.Loop, from, to *Peer) {
	loop = sim.NewLoop(1)
	node := fabric.New(loop, model.Default()).AddNode("n")
	m := newMesh(node, nil, opts)
	to = m.wrap(&nullConn{})
	from = m.wrap(&lendingConn{nullConn: nullConn{}, to: to})
	return loop, from, to
}

// A chunk stream keeps its own copy of every chunk: each chunk frame is
// overwritten once dispatched, and the reassembled message is still the
// one sent.
func TestChunkStreamKeepsItsChunks(t *testing.T) {
	opts := DefaultOptions()
	opts.Transport.MaxMessage = 4 << 10
	loop, from, to := lendingPair(opts)
	var got [][]byte
	to.OnMessage(func(_ Class, m []byte) { got = append(got, bytes.Clone(m)) })
	msg := pattern(3*opts.chunkPayload()+17, 5)
	if err := from.Send(ClassBulk, msg); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	if len(got) != 1 || !bytes.Equal(got[0], msg) {
		t.Fatal("the reassembled message changed with the chunk frames it came in")
	}
}

// A peer's inbox keeps its own copy of what arrives before OnMessage is
// installed — a whole message and the members of a bundle — though every
// frame is overwritten once dispatched.
func TestInboxKeepsMessagesBeforeOnMessage(t *testing.T) {
	loop, from, to := lendingPair(DefaultOptions())
	want := [][]byte{pattern(2000, 1)} // alone: too big to share a bundle
	if err := from.Send(ClassControl, want[0]); err != nil {
		t.Fatal(err)
	}
	loop.Run()
	loop.Post(func() {
		for i := 0; i < 3; i++ {
			want = append(want, pattern(100, byte(10+i)))
			if err := from.Send(ClassControl, want[len(want)-1]); err != nil {
				t.Error(err)
			}
		}
	})
	loop.Run()
	var got [][]byte
	to.OnMessage(func(_ Class, m []byte) { got = append(got, bytes.Clone(m)) })
	if len(got) != len(want) {
		t.Fatalf("%d messages parked, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("parked message %d changed with the frame it came in", i)
		}
	}
}
