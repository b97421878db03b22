package nio

import (
	"bytes"
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
	"rubin/internal/tcpsim"
)

type rig struct {
	loop   *sim.Loop
	na, nb *fabric.Node
	sa, sb *tcpsim.Stack
}

func newRig(t *testing.T) *rig {
	t.Helper()
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	na, nb := nw.AddNode("a"), nw.AddNode("b")
	nw.Connect(na, nb)
	return &rig{loop: loop, na: na, nb: nb, sa: tcpsim.NewStack(na), sb: tcpsim.NewStack(nb)}
}

func TestAcceptViaSelector(t *testing.T) {
	r := newRig(t)
	selB := NewSelector(r.sb)
	ssc, err := ListenSocket(r.sb, 100)
	if err != nil {
		t.Fatal(err)
	}
	selB.Register(ssc, OpAccept, "listener")

	var accepted *SocketChannel
	selB.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			if k.Ready()&OpAccept != 0 {
				if k.Attachment() != "listener" {
					t.Error("attachment lost")
				}
				accepted = k.Channel().(*ServerSocketChannel).Accept()
			}
		}
	})

	r.loop.At(0, func() {
		r.sa.Dial(r.nb, 100, func(c *tcpsim.Conn, err error) {
			if err != nil {
				t.Errorf("Dial: %v", err)
			}
		})
	})
	r.loop.Run()
	if accepted == nil {
		t.Fatal("selector never delivered OpAccept")
	}
	if !accepted.Conn().Established() {
		t.Fatal("accepted channel not established")
	}
}

// echoPair builds a connected client/server channel pair with selectors.
func echoPair(t *testing.T, r *rig) (selA, selB *Selector, client, server *SocketChannel) {
	t.Helper()
	selA, selB = NewSelector(r.sa), NewSelector(r.sb)
	ssc, err := ListenSocket(r.sb, 100)
	if err != nil {
		t.Fatal(err)
	}
	selB.Register(ssc, OpAccept, nil)
	selB.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			if k.Ready()&OpAccept != 0 {
				server = k.Channel().(*ServerSocketChannel).Accept()
			}
		}
	})
	r.loop.At(0, func() {
		r.sa.Dial(r.nb, 100, func(c *tcpsim.Conn, err error) {
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			client = WrapConn(c)
		})
	})
	r.loop.Run()
	if client == nil || server == nil {
		t.Fatal("pair not established")
	}
	return selA, selB, client, server
}

func TestReadWriteThroughSelector(t *testing.T) {
	r := newRig(t)
	selA, selB, client, server := echoPair(t, r)

	// Server: echo everything back.
	selB.Register(server, OpRead, nil)
	buf := make([]byte, 32<<10)
	selB.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			sc := k.Channel().(*SocketChannel)
			if k.Ready()&OpRead != 0 {
				for {
					n, _ := sc.Read(buf)
					if n == 0 {
						break
					}
					_, _ = sc.Conn().Write(buf[:n])
				}
			}
		}
	})

	// Client: collect the echo.
	var got []byte
	selA.Register(client, OpRead, nil)
	selA.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			sc := k.Channel().(*SocketChannel)
			if k.Ready()&OpRead != 0 {
				for {
					n, _ := sc.Read(buf)
					if n == 0 {
						break
					}
					got = append(got, buf[:n]...)
				}
			}
		}
	})

	msg := bytes.Repeat([]byte("nio!"), 1000)
	r.loop.Post(func() { _, _ = client.Conn().Write(msg) })
	r.loop.Run()
	if !bytes.Equal(got, msg) {
		t.Fatalf("echo mismatch: got %d bytes, want %d", len(got), len(msg))
	}
}

func TestOpWriteReadyImmediatelyOnIdleSocket(t *testing.T) {
	r := newRig(t)
	selA, _, client, _ := echoPair(t, r)
	var sawWrite bool
	selA.Register(client, OpWrite, nil)
	selA.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			if k.Ready()&OpWrite != 0 {
				sawWrite = true
				k.SetInterest(0) // stop busy-looping
			}
		}
	})
	r.loop.Run()
	if !sawWrite {
		t.Fatal("idle socket should be write-ready at registration")
	}
}

func TestPeerCloseSignalsRead(t *testing.T) {
	r := newRig(t)
	_, selB, client, server := echoPair(t, r)
	var sawClose bool
	selB.Register(server, OpRead, nil)
	selB.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			sc := k.Channel().(*SocketChannel)
			if k.Ready()&OpRead != 0 && sc.Closed() {
				sawClose = true
				sc.Close()
			}
		}
	})
	r.loop.Post(client.Close)
	r.loop.Run()
	if !sawClose {
		t.Fatal("peer close not observed via selector")
	}
}

func TestCancelStopsDelivery(t *testing.T) {
	r := newRig(t)
	_, selB, client, server := echoPair(t, r)
	key := selB.Register(server, OpRead, nil)
	deliveries := 0
	selB.Select(func(keys []*SelectionKey) {
		deliveries++
		for range keys {
		}
		key.Cancel()
		// Drain so readiness doesn't re-arm.
		buf := make([]byte, 1024)
		for {
			n, _ := server.Read(buf)
			if n == 0 {
				break
			}
		}
	})
	r.loop.Post(func() { _, _ = client.Conn().Write([]byte("one")) })
	r.loop.Run()
	first := deliveries
	r.loop.Post(func() { _, _ = client.Conn().Write([]byte("two")) })
	r.loop.Run()
	if deliveries != first {
		t.Fatalf("canceled key still delivered: %d -> %d", first, deliveries)
	}
}

// TestSelectNowDrainsReadySet polls the ready set the way a dispatch turn
// takes it.
func TestSelectNowDrainsReadySet(t *testing.T) {
	r := newRig(t)
	// Build the pair without installing a Select handler anywhere, so
	// readiness accumulates.
	var server *SocketChannel
	if _, err := r.sb.Listen(100, func(c *tcpsim.Conn) { server = WrapConn(c) }); err != nil {
		t.Fatal(err)
	}
	var client *tcpsim.Conn
	r.loop.At(0, func() {
		r.sa.Dial(r.nb, 100, func(c *tcpsim.Conn, err error) { client = c })
	})
	r.loop.Run()
	if client == nil || server == nil {
		t.Fatal("pair not established")
	}
	selB := NewSelector(r.sb)
	selB.Register(server, OpRead, nil)
	r.loop.Post(func() { _, _ = client.Write([]byte("x")) })
	r.loop.Run()
	keys := selB.takeReady()
	if len(keys) != 1 || keys[0].Ready()&OpRead == 0 {
		t.Fatalf("takeReady = %v", keys)
	}
	if got := selB.takeReady(); got != nil {
		t.Fatalf("second takeReady should be empty, got %v", got)
	}
}

func TestMultipleChannelsOneSelector(t *testing.T) {
	r := newRig(t)
	selB := NewSelector(r.sb)
	ssc, err := ListenSocket(r.sb, 100)
	if err != nil {
		t.Fatal(err)
	}
	selB.Register(ssc, OpAccept, nil)

	received := map[byte]int{}
	buf := make([]byte, 64)
	selB.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			switch ch := k.Channel().(type) {
			case *ServerSocketChannel:
				for {
					sc := ch.Accept()
					if sc == nil {
						break
					}
					selB.Register(sc, OpRead, nil)
				}
			case *SocketChannel:
				for {
					n, _ := ch.Read(buf)
					if n == 0 {
						break
					}
					for _, b := range buf[:n] {
						received[b]++
					}
				}
			}
		}
	})

	const nConns = 5
	var clients []*tcpsim.Conn
	r.loop.At(0, func() {
		for i := 0; i < nConns; i++ {
			r.sa.Dial(r.nb, 100, func(c *tcpsim.Conn, err error) {
				if err != nil {
					t.Errorf("Dial: %v", err)
					return
				}
				clients = append(clients, c)
			})
		}
	})
	r.loop.Run()
	if len(clients) != nConns {
		t.Fatalf("only %d clients connected", len(clients))
	}
	r.loop.Post(func() {
		for i, c := range clients {
			_, _ = c.Write(bytes.Repeat([]byte{byte('a' + i)}, 10))
		}
	})
	r.loop.Run()
	if len(received) != nConns {
		t.Fatalf("received bytes from %d channels, want %d (%v)", len(received), nConns, received)
	}
	for b, n := range received {
		if n != 10 {
			t.Fatalf("channel %c delivered %d bytes, want 10", b, n)
		}
	}
	// A single-threaded selector served all five connections.
	if selB.wakeups == 0 {
		t.Fatal("no selector wakeups recorded")
	}
}
