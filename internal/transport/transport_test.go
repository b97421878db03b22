package transport

import (
	"bytes"
	"fmt"
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/raceflag"
	"rubin/internal/sim"
)

// rig builds an n-node network with a stack of the given kind on each.
type rig struct {
	loop   *sim.Loop
	nw     *fabric.Network
	nodes  []*fabric.Node
	stacks []Stack
}

func newRig(t *testing.T, kind Kind, n int, opts Options) *rig {
	t.Helper()
	return newRigWith(t, kind, n, opts, model.Default())
}

func newRigWith(t *testing.T, kind Kind, n int, opts Options, params model.Params) *rig {
	t.Helper()
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, params)
	r := &rig{loop: loop, nw: nw}
	for i := 0; i < n; i++ {
		node := nw.AddNode(fmt.Sprintf("n%d", i))
		r.nodes = append(r.nodes, node)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			nw.Connect(r.nodes[i], r.nodes[j])
		}
	}
	for i := 0; i < n; i++ {
		st, err := NewStack(kind, r.nodes[i], opts)
		if err != nil {
			t.Fatalf("NewStack: %v", err)
		}
		r.stacks = append(r.stacks, st)
	}
	return r
}

// pair establishes a connection from stack 0 to a listener on stack 1.
func (r *rig) pair(t *testing.T, port int) (client, server Conn) {
	t.Helper()
	if err := r.stacks[1].Listen(port, func(c Conn) { server = c }); err != nil {
		t.Fatalf("Listen: %v", err)
	}
	r.loop.Post(func() {
		r.stacks[0].Dial(r.nodes[1], port, func(c Conn, err error) {
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			client = c
		})
	})
	r.loop.Run()
	if client == nil || server == nil {
		t.Fatal("connection not established")
	}
	return client, server
}

func kinds() []Kind { return []Kind{KindTCP, KindRDMA} }

func TestMessageDeliveryBothBackends(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := newRig(t, kind, 2, DefaultOptions())
			client, server := r.pair(t, 700)
			var got [][]byte
			server.OnMessage(func(m []byte) { got = append(got, bytes.Clone(m)) })
			want := [][]byte{
				[]byte("hello"),
				bytes.Repeat([]byte{7}, 100<<10),
				{},
				bytes.Repeat([]byte{9}, 1<<10),
			}
			r.loop.Post(func() {
				for _, m := range want {
					if err := client.Send(m); err != nil {
						t.Errorf("Send: %v", err)
					}
				}
			})
			r.loop.Run()
			if len(got) != len(want) {
				t.Fatalf("delivered %d messages, want %d", len(got), len(want))
			}
			for i := range want {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("message %d corrupted (%d vs %d bytes)", i, len(got[i]), len(want[i]))
				}
			}
		})
	}
}

func TestBidirectionalTraffic(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := newRig(t, kind, 2, DefaultOptions())
			client, server := r.pair(t, 700)
			var fromClient, fromServer int
			server.OnMessage(func(m []byte) {
				fromClient++
				_ = server.Send(m) // echo
			})
			client.OnMessage(func(m []byte) { fromServer++ })
			r.loop.Post(func() {
				for i := 0; i < 25; i++ {
					_ = client.Send(bytes.Repeat([]byte{byte(i)}, 2048))
				}
			})
			r.loop.Run()
			if fromClient != 25 || fromServer != 25 {
				t.Fatalf("echo incomplete: %d/%d", fromClient, fromServer)
			}
		})
	}
}

func TestOversizedMessageRejected(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			opts := DefaultOptions()
			opts.MaxMessage = 4096
			r := newRig(t, kind, 2, opts)
			client, _ := r.pair(t, 700)
			r.loop.Post(func() {
				if err := client.Send(make([]byte, 8192)); err == nil {
					t.Error("oversized message accepted")
				}
			})
			r.loop.Run()
		})
	}
}

func TestBackpressureOverflowDrains(t *testing.T) {
	// Tiny RDMA pools force ErrWouldBlock internally; the transport's
	// overflow queue must still deliver everything in order.
	opts := DefaultOptions()
	opts.WRs = 4
	r := newRig(t, KindRDMA, 2, opts)
	client, server := r.pair(t, 700)
	var got []int
	server.OnMessage(func(m []byte) { got = append(got, int(m[0])) })
	const n = 50
	r.loop.Post(func() {
		for i := 0; i < n; i++ {
			if err := client.Send(bytes.Repeat([]byte{byte(i)}, 4096)); err != nil {
				t.Errorf("Send %d: %v", i, err)
			}
		}
	})
	r.loop.Run()
	if len(got) != n {
		t.Fatalf("delivered %d, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("order broken at %d: %v", i, got[:i+1])
		}
	}
}

// A message that arrives before OnMessage is installed is parked as a copy:
// both stacks reuse the memory they delivered it from once deliver returns,
// so a parked alias would read zeros by the time OnMessage hands it on.
func TestMessagesBeforeOnMessageAreQueued(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := newRig(t, kind, 2, DefaultOptions())
			client, server := r.pair(t, 700)
			r.loop.Post(func() { _ = client.Send([]byte("early")) })
			r.loop.Run()
			var got [][]byte
			server.OnMessage(func(m []byte) { got = append(got, m) })
			if len(got) != 1 || string(got[0]) != "early" {
				t.Fatalf("queued message lost: %q", got)
			}
		})
	}
}

func TestSendOnClosedConnFails(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := newRig(t, kind, 2, DefaultOptions())
			client, _ := r.pair(t, 700)
			r.loop.Post(func() {
				client.Close()
				if err := client.Send([]byte("x")); err == nil {
					t.Error("Send after Close should fail")
				}
			})
			r.loop.Run()
		})
	}
}

func TestTCPCloseNotifiesPeer(t *testing.T) {
	r := newRig(t, KindTCP, 2, DefaultOptions())
	client, server := r.pair(t, 700)
	closed := false
	server.OnClose(func() { closed = true })
	r.loop.Post(client.Close)
	r.loop.Run()
	if !closed {
		t.Fatal("peer close not observed")
	}
}

func TestDialFailure(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := newRig(t, kind, 2, DefaultOptions())
			var gotErr error
			called := false
			r.loop.Post(func() {
				r.stacks[0].Dial(r.nodes[1], 999, func(c Conn, err error) {
					called = true
					gotErr = err
				})
			})
			r.loop.Run()
			if !called || gotErr == nil {
				t.Fatalf("expected dial failure, called=%v err=%v", called, gotErr)
			}
		})
	}
}

func TestFullMeshManyNodes(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			const n = 4
			r := newRig(t, kind, n, DefaultOptions())
			// Every stack listens; every stack dials every other.
			conns := make(map[int][]Conn) // receiver -> accepted conns
			received := make(map[int]int)
			for i := 0; i < n; i++ {
				i := i
				err := r.stacks[i].Listen(700, func(c Conn) {
					conns[i] = append(conns[i], c)
					c.OnMessage(func(m []byte) { received[i]++ })
				})
				if err != nil {
					t.Fatal(err)
				}
			}
			var dialed []Conn
			r.loop.Post(func() {
				for i := 0; i < n; i++ {
					for j := 0; j < n; j++ {
						if i == j {
							continue
						}
						r.stacks[i].Dial(r.nodes[j], 700, func(c Conn, err error) {
							if err != nil {
								t.Errorf("Dial %d->%d: %v", i, j, err)
								return
							}
							dialed = append(dialed, c)
						})
					}
				}
			})
			r.loop.Run()
			if len(dialed) != n*(n-1) {
				t.Fatalf("dialed %d conns, want %d", len(dialed), n*(n-1))
			}
			r.loop.Post(func() {
				for _, c := range dialed {
					_ = c.Send([]byte("broadcast"))
				}
			})
			r.loop.Run()
			for i := 0; i < n; i++ {
				if received[i] != n-1 {
					t.Fatalf("node %d received %d messages, want %d", i, received[i], n-1)
				}
			}
		})
	}
}

func TestInvalidOptionsAndKind(t *testing.T) {
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	node := nw.AddNode("x")
	if _, err := NewStack(KindTCP, node, Options{}); err == nil {
		t.Fatal("zero options should be rejected")
	}
	if _, err := NewStack("bogus", node, DefaultOptions()); err == nil {
		t.Fatal("unknown kind should be rejected")
	}
}

func TestRDMAPeerIdentity(t *testing.T) {
	r := newRig(t, KindRDMA, 2, DefaultOptions())
	client, server := r.pair(t, 700)
	if client.Peer() != r.nodes[1] {
		t.Fatalf("client peer = %v, want %v", client.Peer(), r.nodes[1])
	}
	if server.Peer() != r.nodes[0] {
		t.Fatalf("server peer = %v, want %v", server.Peer(), r.nodes[0])
	}
}

func TestLargeVolumeStream(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			r := newRig(t, kind, 2, DefaultOptions())
			client, server := r.pair(t, 700)
			total := 0
			server.OnMessage(func(m []byte) { total += len(m) })
			const msgs = 200
			const size = 8 << 10
			sent := 0
			var sendNext func()
			sendNext = func() {
				for sent < msgs {
					if err := client.Send(bytes.Repeat([]byte{1}, size)); err != nil {
						t.Errorf("Send: %v", err)
						return
					}
					sent++
					if sent%20 == 0 {
						// Yield so receive processing interleaves.
						r.loop.After(50*sim.Microsecond, sendNext)
						return
					}
				}
			}
			r.loop.Post(sendNext)
			r.loop.Run()
			if total != msgs*size {
				t.Fatalf("received %d bytes, want %d", total, msgs*size)
			}
		})
	}
}

// Over rdma-rubin the host CPU carries only kernel work — the client's
// rdma_cm connect and each side's two pool registrations (8.364 ms and
// 8.352 ms at the defaults) — and everything RUBIN does per connection and
// per message, the 64 initial receive posts included, runs on the node's
// one app thread.
func TestRDMAStackChargesOnlyKernelWorkToCPU(t *testing.T) {
	r := newRig(t, KindRDMA, 2, DefaultOptions())
	client, server := r.pair(t, 700)
	echoed := 0
	server.OnMessage(func(m []byte) { _ = server.Send(m) })
	client.OnMessage(func([]byte) { echoed++ })
	r.loop.Post(func() {
		for i := 0; i < 20; i++ {
			_ = client.Send(bytes.Repeat([]byte{byte(i)}, 1<<10))
		}
	})
	r.loop.Run()
	if echoed != 20 {
		t.Fatalf("echoed %d of 20", echoed)
	}
	p, opts := r.nw.Params(), DefaultOptions()
	pools := 2 * (p.RDMA.MemRegisterBase + model.KB(p.RDMA.MemRegisterPerKB, opts.WRs*opts.MaxMessage))
	if got, want := r.nodes[0].CPU.BusyTotal(), p.TCP.SendSyscall+pools; got != want {
		t.Errorf("client CPU busy %v, want one connect syscall plus two pool registrations, %v", got, want)
	}
	if got := r.nodes[1].CPU.BusyTotal(); got != pools {
		t.Errorf("server CPU busy %v, want two pool registrations, %v", got, pools)
	}
	for _, n := range r.nodes {
		if n.App.BusyTotal() == 0 {
			t.Errorf("%s: app thread never busy", n.Name())
		}
	}
}

// TestPillarsServeOnTheirOwnThreads: two stacks made together on one node
// share its TCP stack or RNIC, and each serves its connections on the
// node's application thread of its index. Traffic to pillar 1 keeps thread
// 1 busy and leaves App, thread 0, idle; traffic to pillar 0 then runs on
// App and leaves thread 1 where it was.
func TestPillarsServeOnTheirOwnThreads(t *testing.T) {
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			loop := sim.NewLoop(1)
			nw := fabric.New(loop, model.Default())
			cn, sn := nw.AddNode("client"), nw.AddNode("server")
			nw.Connect(cn, sn)
			cs, err := NewStack(kind, cn, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			pillars, err := NewStacks(kind, sn, DefaultOptions(), 2)
			if err != nil {
				t.Fatal(err)
			}
			received := make([]int, 2)
			for k, st := range pillars {
				if err := st.Listen(700+k, func(c Conn) { c.OnMessage(func([]byte) { received[k]++ }) }); err != nil {
					t.Fatal(err)
				}
			}
			send := func(k int) {
				loop.Post(func() {
					cs.Dial(sn, 700+k, func(c Conn, err error) {
						if err != nil {
							t.Error(err)
							return
						}
						for i := 0; i < 10; i++ {
							_ = c.Send(bytes.Repeat([]byte{byte(i)}, 4<<10))
						}
					})
				})
				loop.Run()
			}
			send(1)
			busy1 := sn.Thread(1).BusyTotal()
			if received[1] != 10 || busy1 == 0 || sn.App.BusyTotal() != 0 {
				t.Fatalf("pillar 1 received %d of 10: thread 1 busy %v, App busy %v; want thread 1 busy and App idle",
					received[1], busy1, sn.App.BusyTotal())
			}
			send(0)
			if received[0] != 10 || sn.App.BusyTotal() == 0 || sn.Thread(1).BusyTotal() != busy1 {
				t.Errorf("pillar 0 received %d of 10: App busy %v, thread 1 busy %v (was %v); want App busy and thread 1 unmoved",
					received[0], sn.App.BusyTotal(), sn.Thread(1).BusyTotal(), busy1)
			}
		})
	}
}

// The allocation gate of both stacks' receive paths: once a lap of the
// work-request pool and the receive ring has backed every slot and grown
// every buffer, an echo — the client's message delivered to the server,
// sent back from inside its callback and delivered to the client — costs no
// allocation, for 1 KiB and 32 KiB messages and for a batch of ten. A
// delivered message is lent from the receive memory: rdma-rubin's landed
// backing goes back to the receive pool at the channel's next Receive, and
// tcp-nio delivers in place from its receive buffer. Each delivery cost one
// allocation while a delivered message was the receiver's to keep.
func TestDeliveryAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the path's")
	}
	for _, kind := range kinds() {
		for _, tc := range []struct {
			name        string
			size, count int
		}{{"1 KiB", 1 << 10, 1}, {"32 KiB", 32 << 10, 1}, {"a batch of ten 1 KiB", 1 << 10, 10}} {
			opts := DefaultOptions()
			r := newRig(t, kind, 2, opts)
			client, server := r.pair(t, 700)
			server.OnMessage(func(m []byte) { _ = server.Send(m) })
			echoed := 0
			client.OnMessage(func(m []byte) { echoed += len(m) })
			msg := bytes.Repeat([]byte{5}, tc.size)
			round := func() {
				for i := 0; i < tc.count; i++ {
					if err := client.Send(msg); err != nil {
						t.Fatal(err)
					}
				}
				r.loop.Run()
			}
			for i := 0; i < opts.WRs; i++ {
				round() // warm-up: one lap of the pools, buffers grown, records made
			}
			allocs := testing.AllocsPerRun(100, round) / float64(2*tc.count)
			t.Logf("%s %s: %v allocs per delivered message", kind, tc.name, allocs)
			if allocs != 0 {
				t.Errorf("%s %s: %v allocs per delivered message, want 0", kind, tc.name, allocs)
			}
			if want := (opts.WRs + 101) * tc.count * tc.size; echoed != want {
				t.Fatalf("%s %s: echoed %d bytes, want %d", kind, tc.name, echoed, want)
			}
		}
	}
}
