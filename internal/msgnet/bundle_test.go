package msgnet

import (
	"bytes"
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/raceflag"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// transportKinds wraps b's side of the pair so that it records the kind
// byte of every transport message it receives before msgnet decodes it.
func transportKinds(p *pair) *[]byte {
	var kinds []byte
	p.ba.conn.OnMessage(func(raw []byte) {
		kinds = append(kinds, raw[0])
		p.ba.dispatch(raw)
	})
	return &kinds
}

// TestBundlesCarryQueuedMessages queues many small messages in one turn, in
// both classes: they arrive whole, in order and in their class, as a few
// bundle frames — one per class while the class's messages fit bundleMax,
// and the remainder after it.
func TestBundlesCarryQueuedMessages(t *testing.T) {
	const controls, bulks, size = 40, 10, 100
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			p := newPair(t, kind, DefaultOptions())
			frames := transportKinds(p)
			got := map[Class][][]byte{}
			p.ba.OnMessage(func(c Class, m []byte) { got[c] = append(got[c], bytes.Clone(m)) })
			p.loop.Post(func() {
				for i := 0; i < controls; i++ {
					if err := p.ab.Send(ClassControl, pattern(size, byte(i))); err != nil {
						t.Errorf("control send: %v", err)
					}
					if i < bulks {
						if err := p.ab.Send(ClassBulk, pattern(size+i, byte(i))); err != nil {
							t.Errorf("bulk send: %v", err)
						}
					}
				}
			})
			p.loop.Run()
			if len(got[ClassControl]) != controls || len(got[ClassBulk]) != bulks {
				t.Fatalf("delivered %d control and %d bulk messages, want %d and %d",
					len(got[ClassControl]), len(got[ClassBulk]), controls, bulks)
			}
			for i, m := range got[ClassControl] {
				if !bytes.Equal(m, pattern(size, byte(i))) {
					t.Fatalf("control message %d arrived changed or out of order", i)
				}
			}
			for i, m := range got[ClassBulk] {
				if !bytes.Equal(m, pattern(size+i, byte(i))) {
					t.Fatalf("bulk message %d arrived changed or out of order", i)
				}
			}
			// 39 control members fill a bundle to 4 058 bytes; the 40th
			// travels alone after the bulk class's turn.
			if want := []byte{frameBundle, frameBundle, frameWhole}; !bytes.Equal(*frames, want) {
				t.Errorf("transport messages of kinds %v, want %v", *frames, want)
			}
			if *p.ba.mesh.recvErrs != 0 || *p.ab.mesh.sendErrs != 0 {
				t.Errorf("recvErrs=%d sendErrs=%d, want 0/0", *p.ba.mesh.recvErrs, *p.ab.mesh.sendErrs)
			}
		})
	}
}

// TestUnbundleableMessagesTravelAlone queues, in one class and one turn,
// small messages around a message over bundleMax, an empty message and a
// chunked one: each of those three travels exactly as it did before
// bundles existed, and only neighbouring small messages share a frame.
func TestUnbundleableMessagesTravelAlone(t *testing.T) {
	opts := DefaultOptions()
	sizes := []int{10, 20, bundleMax, 30, 0, 40, 50, opts.maxWhole() + 1, 60}
	want := []byte{
		frameBundle,            // 10, 20
		frameWhole,             // over the cap
		frameWhole, frameWhole, // 30 (its follower is empty), the empty message
		frameBundle,            // 40, 50
		frameChunk, frameChunk, // the chunked message
		frameWhole, // 60
	}
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			p := newPair(t, kind, opts)
			frames := transportKinds(p)
			var got [][]byte
			p.ba.OnMessage(func(_ Class, m []byte) { got = append(got, bytes.Clone(m)) })
			p.loop.Post(func() {
				for i, n := range sizes {
					if err := p.ab.Send(ClassControl, pattern(n, byte(i))); err != nil {
						t.Errorf("send %d: %v", i, err)
					}
				}
			})
			p.loop.Run()
			if len(got) != len(sizes) {
				t.Fatalf("delivered %d of %d messages", len(got), len(sizes))
			}
			for i, n := range sizes {
				if !bytes.Equal(got[i], pattern(n, byte(i))) {
					t.Errorf("message %d (%d bytes) arrived changed or out of order", i, n)
				}
			}
			if !bytes.Equal(*frames, want) {
				t.Errorf("transport messages of kinds %v, want %v", *frames, want)
			}
		})
	}
}

// TestDispatchTakesABundleWholeOrNotAtAll feeds dispatch bundles that
// break the layout: each counts one msgnet.recv_errors and delivers
// nothing, not even the well-formed members in front of the flaw. A
// well-formed bundle delivers each member as a sub-slice whose capacity
// ends with it, so a consumer appending to one cannot overwrite the
// bytes behind it.
func TestDispatchTakesABundleWholeOrNotAtAll(t *testing.T) {
	a, b := []byte("first"), []byte("second")
	whole := encodeBundle(ClassControl, a, b)
	for _, tc := range []struct {
		name  string
		frame []byte
	}{
		{"no members", encodeBundle(ClassControl)},
		{"one member", encodeBundle(ClassControl, a)},
		{"empty member", encodeBundle(ClassControl, a, nil, b)},
		{"trailing bytes", append(encodeBundle(ClassControl, a, b), 0)},
		{"truncated member header", append(encodeBundle(ClassControl, a, b), 0, 0, 1)},
		{"member past the end", whole[:len(whole)-1]},
		{"huge length", append(encodeBundle(ClassControl, a), 0xFF, 0xFF, 0xFF, 0xFF, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := fuzzPeer()
			delivered := 0
			p.OnMessage(func(Class, []byte) { delivered++ })
			p.dispatch(tc.frame)
			if delivered != 0 || *p.mesh.recvErrs != 1 {
				t.Errorf("delivered %d, recvErrs %d, want 0 and 1", delivered, *p.mesh.recvErrs)
			}
		})
	}
	p := fuzzPeer()
	var got [][]byte
	p.OnMessage(func(_ Class, m []byte) { got = append(got, m) })
	p.dispatch(whole)
	if len(got) != 2 || string(got[0]) != "first" || string(got[1]) != "second" || *p.mesh.recvErrs != 0 {
		t.Fatalf("well-formed bundle delivered %q with %d errors", got, *p.mesh.recvErrs)
	}
	if cap(got[0]) != len(a) || cap(got[1]) != len(b) {
		t.Errorf("members of capacity %d and %d, want %d and %d", cap(got[0]), cap(got[1]), len(a), len(b))
	}
}

// TestBundleAllocsSteadyState: packing queued messages into a bundle frame
// allocates nothing once the pools are warm — the bundle rides a pooled
// buffer like any queued frame.
func TestBundleAllocsSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	loop, p := probePeer(DefaultOptions())
	msg := make([]byte, 120)
	turn := func() {
		for i := 0; i < 24; i++ {
			if err := p.Send(ClassControl, msg); err != nil {
				panic(err)
			}
		}
		loop.Run()
	}
	for i := 0; i < 32; i++ {
		turn()
	}
	if avg := testing.AllocsPerRun(100, turn); avg != 0 {
		t.Errorf("24 queued messages and the bundle carrying them allocate %.2f per turn, want 0", avg)
	}
}

// closingConn is a substrate whose connection died: every Send fails with
// transport.ErrClosed.
type closingConn struct{ nullConn }

func (c *closingConn) Send([]byte) error { return transport.ErrClosed }

// TestClosedUnderABundleReportsEveryMember: a connection that dies under a
// bundle loses every member of it, not one message. OnSendError and
// SendErrors report each member once and each message still queued behind
// the bundle once — as many errors as messages accepted.
func TestClosedUnderABundleReportsEveryMember(t *testing.T) {
	const accepted = 45 // 39 of 100 bytes fill the first bundle; 6 stay queued
	loop := sim.NewLoop(1)
	node := fabric.New(loop, model.Default()).AddNode("probe")
	m := newMesh(node, nil, DefaultOptions())
	p := m.wrap(&closingConn{nullConn{}})
	sendErrs, closes := 0, 0
	p.OnSendError(func(error) { sendErrs++ })
	p.OnClose(func() { closes++ })
	for i := 0; i < accepted; i++ {
		if err := p.Send(ClassControl, pattern(100, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	loop.Run()
	if sendErrs != accepted || *m.sendErrs != accepted {
		t.Errorf("OnSendError fired %d times, SendErrors %d, want %d each (one per message)",
			sendErrs, *m.sendErrs, accepted)
	}
	if closes != 1 || !p.Closed() {
		t.Errorf("OnClose fired %d times, closed %v, want 1 and true", closes, p.Closed())
	}
}
