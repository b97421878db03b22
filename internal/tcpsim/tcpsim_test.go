package tcpsim

import (
	"bytes"
	"testing"
	"testing/quick"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
)

type pair struct {
	loop   *sim.Loop
	nw     *fabric.Network
	a, b   *fabric.Node
	sa, sb *Stack
}

func newPair(t *testing.T) *pair {
	t.Helper()
	return newPairWith(model.Default())
}

func newPairWith(params model.Params) *pair {
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, params)
	a, b := nw.AddNode("a"), nw.AddNode("b")
	nw.Connect(a, b)
	return &pair{loop: loop, nw: nw, a: a, b: b, sa: NewStack(a), sb: NewStack(b)}
}

// connect establishes a client connection from a to a listener on b and
// returns both endpoints.
func (p *pair) connect(t *testing.T, port int) (client, server *Conn) {
	t.Helper()
	if _, err := p.sb.Listen(port, func(c *Conn) { server = c }); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	p.loop.At(0, func() {
		p.sa.Dial(p.b, port, func(c *Conn, err error) {
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			client = c
		})
	})
	p.loop.Run()
	if client == nil || server == nil {
		t.Fatal("handshake did not complete")
	}
	return client, server
}

func TestHandshake(t *testing.T) {
	p := newPair(t)
	client, server := p.connect(t, 1000)
	if !client.Established() || !server.Established() {
		t.Fatal("connections should be established")
	}
	if client.remotePort != 1000 || server.localPort != 1000 {
		t.Fatal("port mismatch")
	}
	if client.LocalNode() != p.a || client.RemoteNode() != p.b {
		t.Fatal("node endpoints wrong")
	}
}

func TestDialConnectionRefused(t *testing.T) {
	p := newPair(t)
	var gotErr error
	called := false
	p.loop.At(0, func() {
		p.sa.Dial(p.b, 4242, func(c *Conn, err error) {
			called = true
			gotErr = err
			if c != nil {
				t.Error("conn should be nil on refusal")
			}
		})
	})
	p.loop.Run()
	if !called {
		t.Fatal("dial callback never ran")
	}
	if gotErr == nil {
		t.Fatal("expected connection refused")
	}
}

func TestListenPortInUse(t *testing.T) {
	p := newPair(t)
	if _, err := p.sb.Listen(7, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := p.sb.Listen(7, nil); err == nil {
		t.Fatal("second Listen on same port should fail")
	}
}

func TestDataTransferPreservesBytes(t *testing.T) {
	p := newPair(t)
	client, server := p.connect(t, 1000)

	msg := make([]byte, 5000)
	for i := range msg {
		msg[i] = byte(i * 7)
	}
	var rx []byte
	server.OnReadable(func() {
		buf := make([]byte, 64<<10)
		for {
			n, err := server.Read(buf)
			if err != nil {
				t.Errorf("Read: %v", err)
				return
			}
			if n == 0 {
				break
			}
			rx = append(rx, buf[:n]...)
		}
	})
	p.loop.Post(func() {
		n, err := client.Write(msg)
		if err != nil || n != len(msg) {
			t.Errorf("Write = (%d, %v), want (%d, nil)", n, err, len(msg))
		}
	})
	p.loop.Run()
	if !bytes.Equal(rx, msg) {
		t.Fatalf("received %d bytes, want %d; data corrupted", len(rx), len(msg))
	}
}

func TestEchoRoundTripLatencyIsPlausible(t *testing.T) {
	p := newPair(t)
	client, server := p.connect(t, 1000)

	buf := make([]byte, 64<<10)
	server.OnReadable(func() {
		n, _ := server.Read(buf)
		if n > 0 {
			_, _ = server.Write(buf[:n])
		}
	})
	var start, end sim.Time
	payload := make([]byte, 1024)
	got := 0
	client.OnReadable(func() {
		n, _ := client.Read(buf)
		got += n
		if got == len(payload) {
			end = p.loop.Now()
		}
	})
	p.loop.Post(func() {
		start = p.loop.Now()
		_, _ = client.Write(payload)
	})
	p.loop.Run()
	if end == 0 {
		t.Fatal("echo never completed")
	}
	rtt := end - start
	// Calibration: 1 KB TCP echo should land in the low hundreds of µs
	// (paper Fig. 3a shows ~200 µs at 1 KB).
	if rtt < 50*sim.Microsecond || rtt > 500*sim.Microsecond {
		t.Fatalf("1KB echo RTT %v outside plausible band", rtt)
	}
}

func TestLargeTransferSegmentsAndFlowControl(t *testing.T) {
	p := newPair(t)
	client, server := p.connect(t, 1000)

	total := 6 << 20 // larger than the 4 MB socket buffer: exercises windows
	var rx int
	buf := make([]byte, 128<<10)
	server.OnReadable(func() {
		for {
			n, _ := server.Read(buf)
			if n == 0 {
				break
			}
			rx += n
		}
	})
	remaining := total
	var pumpWrite func()
	pumpWrite = func() {
		for remaining > 0 {
			chunk := remaining
			if chunk > 256<<10 {
				chunk = 256 << 10
			}
			n, err := client.Write(make([]byte, chunk))
			if err != nil {
				t.Errorf("Write: %v", err)
				return
			}
			remaining -= n
			if n == 0 {
				client.OnWritable(pumpWrite)
				return
			}
		}
	}
	p.loop.Post(pumpWrite)
	p.loop.Run()
	if rx != total {
		t.Fatalf("received %d bytes, want %d", rx, total)
	}
}

func TestWriteOnClosedConnFails(t *testing.T) {
	p := newPair(t)
	client, _ := p.connect(t, 1000)
	p.loop.Post(func() {
		client.Close()
		if _, err := client.Write([]byte("x")); err == nil {
			t.Error("Write after Close should fail")
		}
	})
	p.loop.Run()
}

func TestCloseNotifiesPeer(t *testing.T) {
	p := newPair(t)
	client, server := p.connect(t, 1000)
	closed := false
	server.OnClose(func() { closed = true })
	p.loop.Post(client.Close)
	p.loop.Run()
	if !closed {
		t.Fatal("peer did not observe close")
	}
	if server.Established() {
		t.Fatal("server conn should be closed")
	}
}

func TestReadOnClosedDrainedConnFails(t *testing.T) {
	p := newPair(t)
	client, server := p.connect(t, 1000)
	var readErr error
	server.OnClose(func() {
		_, readErr = server.Read(make([]byte, 10))
	})
	p.loop.Post(client.Close)
	p.loop.Run()
	if readErr == nil {
		t.Fatal("Read on closed drained conn should fail")
	}
}

func TestReadWouldBlockReturnsZero(t *testing.T) {
	p := newPair(t)
	client, _ := p.connect(t, 1000)
	p.loop.Post(func() {
		n, err := client.Read(make([]byte, 10))
		if n != 0 || err != nil {
			t.Errorf("Read on empty conn = (%d, %v), want (0, nil)", n, err)
		}
	})
	p.loop.Run()
}

func TestBidirectionalTransfer(t *testing.T) {
	p := newPair(t)
	client, server := p.connect(t, 1000)
	var fromClient, fromServer []byte
	buf := make([]byte, 32<<10)
	server.OnReadable(func() {
		n, _ := server.Read(buf)
		fromClient = append(fromClient, buf[:n]...)
	})
	client.OnReadable(func() {
		n, _ := client.Read(buf)
		fromServer = append(fromServer, buf[:n]...)
	})
	p.loop.Post(func() {
		_, _ = client.Write(bytes.Repeat([]byte("c"), 3000))
		_, _ = server.Write(bytes.Repeat([]byte("s"), 3000))
	})
	p.loop.Run()
	if len(fromClient) != 3000 || len(fromServer) != 3000 {
		t.Fatalf("got %d/%d bytes, want 3000/3000", len(fromClient), len(fromServer))
	}
}

func TestMultipleConnectionsAreIsolated(t *testing.T) {
	p := newPair(t)
	var servers []*Conn
	if _, err := p.sb.Listen(1000, func(c *Conn) { servers = append(servers, c) }); err != nil {
		t.Fatal(err)
	}
	var clients []*Conn
	p.loop.At(0, func() {
		for i := 0; i < 3; i++ {
			p.sa.Dial(p.b, 1000, func(c *Conn, err error) {
				if err != nil {
					t.Errorf("Dial: %v", err)
					return
				}
				clients = append(clients, c)
			})
		}
	})
	p.loop.Run()
	if len(clients) != 3 || len(servers) != 3 {
		t.Fatalf("got %d clients, %d servers; want 3 each", len(clients), len(servers))
	}

	// Send a distinct byte on each connection; verify no cross-talk.
	recv := make([]byte, 3)
	for i, s := range servers {
		i, s := i, s
		s.OnReadable(func() {
			b := make([]byte, 16)
			n, _ := s.Read(b)
			if n == 1 {
				recv[i] = b[0]
			} else {
				t.Errorf("conn %d got %d bytes", i, n)
			}
		})
	}
	p.loop.Post(func() {
		for i, c := range clients {
			_, _ = c.Write([]byte{byte('A' + i)})
		}
	})
	p.loop.Run()
	// Server conns accept in SYN arrival order, matching dial order.
	for i := range recv {
		if recv[i] != byte('A'+i) {
			t.Fatalf("cross-talk: conn %d received %q", i, recv[i])
		}
	}
}

// Property: any sequence of writes arrives concatenated, uncorrupted and
// in order.
func TestPropertyStreamIntegrity(t *testing.T) {
	prop := func(chunks [][]byte) bool {
		loop := sim.NewLoop(1)
		nw := fabric.New(loop, model.Default())
		a, b := nw.AddNode("a"), nw.AddNode("b")
		nw.Connect(a, b)
		sa, sb := NewStack(a), NewStack(b)
		var server *Conn
		_, err := sb.Listen(1, func(c *Conn) { server = c })
		if err != nil {
			return false
		}
		var client *Conn
		loop.At(0, func() {
			sa.Dial(b, 1, func(c *Conn, err error) { client = c })
		})
		loop.Run()
		if client == nil || server == nil {
			return false
		}
		var want, got []byte
		buf := make([]byte, 64<<10)
		server.OnReadable(func() {
			for {
				n, _ := server.Read(buf)
				if n == 0 {
					break
				}
				got = append(got, buf[:n]...)
			}
		})
		loop.Post(func() {
			for _, ch := range chunks {
				if len(ch) > 32<<10 {
					ch = ch[:32<<10]
				}
				want = append(want, ch...)
				_, _ = client.Write(ch)
			}
		})
		loop.Run()
		return bytes.Equal(want, got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
