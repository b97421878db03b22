package rubin

import (
	"bytes"
	"fmt"
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/rdma"
	"rubin/internal/sim"
)

type rig struct {
	loop       *sim.Loop
	na, nb     *fabric.Node
	da, db     *rdma.Device
	selA, selB *Selector
}

func newRig(t *testing.T, mutate func(*model.Params)) *rig {
	t.Helper()
	loop := sim.NewLoop(1)
	params := model.Default()
	if mutate != nil {
		mutate(&params)
	}
	nw := fabric.New(loop, params)
	na, nb := nw.AddNode("a"), nw.AddNode("b")
	nw.Connect(na, nb)
	r := &rig{loop: loop, na: na, nb: nb}
	r.da, r.db = rdma.OpenDevice(na), rdma.OpenDevice(nb)
	r.selA, r.selB = NewSelector(r.da), NewSelector(r.db)
	return r
}

// zeroCopyModel is the rig's model mutation for a receive with (zeroCopy)
// or without the copy charge: zero-copy receive is a cost-model
// counterfactual, Selector.CopyPerKB = 0.
func zeroCopyModel(zeroCopy bool) func(*model.Params) {
	if !zeroCopy {
		return nil
	}
	return func(p *model.Params) { p.Selector.CopyPerKB = 0 }
}

// connect builds a connected channel pair: client on node a, server-side
// channel on node b (accepted through the selector, as an application
// would).
func (r *rig) connect(t *testing.T, cfg Config) (client, server *Channel) {
	t.Helper()
	srv, err := Listen(r.selB, 7, cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	r.selB.Register(srv, OpConnect, nil)
	r.selB.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			if k.Ready()&OpConnect != 0 {
				if sc, ok := k.Channel().(*ServerChannel); ok {
					for {
						ch := sc.Accept()
						if ch == nil {
							break
						}
						server = ch
					}
				}
			}
		}
	})
	r.loop.Post(func() {
		_, err := Connect(r.selA, r.nb, 7, cfg, func(ch *Channel, err error) {
			if err != nil {
				t.Errorf("Connect: %v", err)
				return
			}
			client = ch
		})
		if err != nil {
			t.Errorf("Connect setup: %v", err)
		}
	})
	r.loop.Run()
	if client == nil || server == nil {
		t.Fatal("channel pair not established")
	}
	if srv.Err() != nil {
		t.Fatalf("server setup error: %v", srv.Err())
	}
	return client, server
}

func TestConnectEstablishesChannelPair(t *testing.T) {
	r := newRig(t, nil)
	client, server := r.connect(t, DefaultConfig())
	if !client.connected || client.closed || !server.connected || server.closed {
		t.Fatal("channels should be connected")
	}
	if server.ID() == 0 {
		t.Fatal("server channel should carry a connection ID")
	}
}

func TestConnectToClosedPortFails(t *testing.T) {
	r := newRig(t, nil)
	var gotErr error
	r.loop.Post(func() {
		_, _ = Connect(r.selA, r.nb, 99, DefaultConfig(), func(ch *Channel, err error) {
			gotErr = err
		})
	})
	r.loop.Run()
	if gotErr == nil {
		t.Fatal("expected connect failure")
	}
}

// The entire premise: RDMA's per-message CPU cost under the default channel
// must be far below TCP's. Compare fixed CPU costs of one receive.
func TestDefaultChannelReceivesCheaperThanTCP(t *testing.T) {
	p := model.Default()
	tcpRecv := p.TCP.Interrupt + p.TCP.RecvSyscall + p.TCP.Wakeup
	rdmaRecv := p.RDMA.CQPoll + p.RDMA.CompletionHandle/sim.Time(DefaultConfig().SignalInterval) + p.RDMA.RecvWRRefill
	if rdmaRecv >= tcpRecv {
		t.Fatalf("calibration broken: RDMA recv CPU %v >= TCP recv CPU %v", rdmaRecv, tcpRecv)
	}
}

func TestConfigValidation(t *testing.T) {
	r := newRig(t, nil)
	bad := []Config{
		{SendWRs: 0, RecvWRs: 1, BufferSize: 1, SignalInterval: 1, PostBatch: 1},
		{SendWRs: 1, RecvWRs: 0, BufferSize: 1, SignalInterval: 1, PostBatch: 1},
		{SendWRs: 1, RecvWRs: 1, BufferSize: 0, SignalInterval: 1, PostBatch: 1},
		{SendWRs: 1, RecvWRs: 1, BufferSize: 1, SignalInterval: 0, PostBatch: 1},
		{SendWRs: 1, RecvWRs: 1, BufferSize: 1, SignalInterval: 1, PostBatch: 0},
	}
	for i, cfg := range bad {
		if _, err := Listen(r.selB, 100+i, cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
}

// pumpReceiver registers a channel for OpReceive on a selector and
// collects a copy of every message: Receive lends each one only until its
// next call.
func pumpReceiver(sel *Selector, ch *Channel, out *[][]byte) {
	sel.Register(ch, OpReceive, nil)
	sel.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			if k.Ready()&OpReceive == 0 {
				continue
			}
			c := k.Channel().(*Channel)
			for {
				msg, ok := c.Receive()
				if !ok {
					break
				}
				*out = append(*out, bytes.Clone(msg))
			}
		}
	})
}

func TestSendReceiveRoundTrip(t *testing.T) {
	r := newRig(t, nil)
	client, server := r.connect(t, DefaultConfig())

	var got [][]byte
	pumpReceiver(r.selB, server, &got)

	want := [][]byte{
		[]byte("alpha"),
		bytes.Repeat([]byte{0x42}, 4096),
		bytes.Repeat([]byte{0x17}, 100<<10),
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
		t.Fatalf("received %d messages, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("message %d corrupted: %d bytes vs %d", i, len(got[i]), len(want[i]))
		}
	}
	if server.received != 3 || client.sent != 3 {
		t.Fatalf("counters wrong: %d sent / %d received", client.sent, server.received)
	}
}

func TestMessageTooBigRejected(t *testing.T) {
	r := newRig(t, nil)
	cfg := DefaultConfig()
	cfg.BufferSize = 1024
	client, _ := r.connect(t, cfg)
	r.loop.Post(func() {
		if err := client.Send(make([]byte, 2048)); err == nil {
			t.Error("oversized message should be rejected")
		}
	})
	r.loop.Run()
}

func TestSelectiveSignalingReducesCompletions(t *testing.T) {
	r := newRig(t, nil)
	cfg := DefaultConfig()
	cfg.SignalInterval = 8
	client, server := r.connect(t, cfg)
	var got [][]byte
	pumpReceiver(r.selB, server, &got)

	const n = 64
	r.loop.Post(func() {
		for i := 0; i < n; i++ {
			if err := client.Send(bytes.Repeat([]byte{byte(i)}, 1024)); err != nil {
				t.Errorf("Send %d: %v", i, err)
			}
		}
	})
	r.loop.Run()
	if len(got) != n {
		t.Fatalf("received %d, want %d", len(got), n)
	}
	// ~n/8 periodic signals, plus at most a couple of forced signals
	// when the pool ran low — far fewer than one per message.
	if sig := client.SignaledCompletions(); sig < n/8 || sig > n/8+2 {
		t.Fatalf("signaled completions = %d, want ~%d", sig, n/8)
	}
	// All slots must be reclaimed by the covering signaled completions.
	if client.SendCapacity() != cfg.SendWRs {
		t.Fatalf("send capacity = %d, want %d (slot leak)", client.SendCapacity(), cfg.SendWRs)
	}
}

func TestEverySendSignaledWhenIntervalOne(t *testing.T) {
	r := newRig(t, nil)
	cfg := DefaultConfig()
	cfg.SignalInterval = 1
	client, server := r.connect(t, cfg)
	var got [][]byte
	pumpReceiver(r.selB, server, &got)
	r.loop.Post(func() {
		for i := 0; i < 10; i++ {
			_ = client.Send([]byte("m"))
		}
	})
	r.loop.Run()
	if client.SignaledCompletions() != 10 {
		t.Fatalf("signaled = %d, want 10", client.SignaledCompletions())
	}
}

func TestBackpressureAndOpSend(t *testing.T) {
	r := newRig(t, nil)
	cfg := DefaultConfig()
	cfg.SendWRs = 4
	cfg.SignalInterval = 2
	client, server := r.connect(t, cfg)
	var got [][]byte
	pumpReceiver(r.selB, server, &got)

	var blocked bool
	var resumed bool
	key := r.selA.Register(client, 0, nil)
	r.selA.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			if k.Ready()&OpSend != 0 {
				resumed = true
				k.ResetReady(OpSend)
				k.SetInterest(0)
			}
		}
	})
	r.loop.Post(func() {
		for i := 0; ; i++ {
			err := client.Send(bytes.Repeat([]byte{byte(i)}, 2048))
			if err == ErrWouldBlock {
				blocked = true
				key.SetInterest(OpSend)
				break
			}
			if err != nil {
				t.Errorf("Send: %v", err)
				break
			}
			if i > 100 {
				break
			}
		}
	})
	r.loop.Run()
	if !blocked {
		t.Fatal("small send pool never exerted backpressure")
	}
	if !resumed {
		t.Fatal("OpSend readiness never signaled after capacity returned")
	}
	if len(got) != 4 {
		t.Fatalf("received %d messages, want 4 (pool depth)", len(got))
	}
}

func TestInlineSendSkipsPoolSlot(t *testing.T) {
	r := newRig(t, nil)
	cfg := DefaultConfig()
	cfg.Inline = true
	client, server := r.connect(t, cfg)
	var got [][]byte
	pumpReceiver(r.selB, server, &got)
	small := []byte("tiny") // well under the 256 B inline limit
	r.loop.Post(func() {
		if err := client.Send(small); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	r.loop.Run()
	if len(got) != 1 || !bytes.Equal(got[0], small) {
		t.Fatalf("inline message mangled: %q", got)
	}
}

// The inline threshold is the model's limit: at 128 B both messages take a
// pool slot (a fixed 256 B cut-off would post the 200 B one inline and have
// the QP refuse it), at 512 B both ride in the work request.
func TestInlineLimitFollowsModel(t *testing.T) {
	for _, tc := range []struct{ limit, slots int }{{128, 2}, {512, 0}} {
		r := newRig(t, func(p *model.Params) { p.RDMA.InlineMax = tc.limit })
		cfg := DefaultConfig()
		client, server := r.connect(t, cfg)
		var got [][]byte
		pumpReceiver(r.selB, server, &got)
		want := [][]byte{bytes.Repeat([]byte{1}, 200), bytes.Repeat([]byte{2}, 400)}
		slots := 0
		r.loop.Post(func() {
			for _, m := range want {
				if err := client.Send(m); err != nil {
					t.Errorf("limit %d: Send(%d B): %v", tc.limit, len(m), err)
				}
			}
			slots = cfg.SendWRs - len(client.freeSend)
		})
		r.loop.Run()
		if len(got) != len(want) || client.Closed() {
			t.Fatalf("limit %d: delivered %d of %d messages (channel closed: %v)", tc.limit, len(got), len(want), client.Closed())
		}
		if slots != tc.slots {
			t.Errorf("limit %d: %d messages took a pool slot, want %d", tc.limit, slots, tc.slots)
		}
	}
}

func TestBatchedPostingSharesDoorbells(t *testing.T) {
	// Doorbell batching is a CPU-overhead optimization: posting 8
	// messages with one doorbell (PostWR + 7×PostWRBatched) must burn
	// less sender-thread time than 8 individual doorbells (8×PostWR).
	senderThreadBusy := func(postBatch int) sim.Time {
		r := newRig(t, nil)
		cfg := DefaultConfig()
		cfg.PostBatch = postBatch
		client, server := r.connect(t, cfg)
		var got [][]byte
		pumpReceiver(r.selB, server, &got)
		before := r.na.App.BusyTotal()
		r.loop.Post(func() {
			for i := 0; i < 8; i++ {
				_ = client.Send(bytes.Repeat([]byte{1}, 1024))
			}
		})
		r.loop.Run()
		if len(got) != 8 {
			t.Fatalf("received %d, want 8", len(got))
		}
		return r.na.App.BusyTotal() - before
	}
	batched := senderThreadBusy(8)
	single := senderThreadBusy(1)
	if batched >= single {
		t.Fatalf("batched posting burned %v of sender thread, singles %v — batching should cost less", batched, single)
	}
}

// Zero-copy receive is a modeled charge and nothing else: the same messages,
// sent one at a time, arrive as the same bytes with and without the copy
// charge (Selector.CopyPerKB zeroed), the receiving app thread is busy for
// exactly CopyPerKB per delivered KB less, and the sequence finishes sooner.
func TestZeroCopyReceiveAblation(t *testing.T) {
	sizes := []int{100, 4096, 32 << 10, 100 << 10}
	run := func(zeroCopy bool) (busy, elapsed sim.Time, got [][]byte) {
		r := newRig(t, zeroCopyModel(zeroCopy))
		cfg := DefaultConfig()
		client, server := r.connect(t, cfg)
		pumpReceiver(r.selB, server, &got)
		busy, start := r.nb.App.BusyTotal(), r.loop.Now()
		for i, size := range sizes {
			if err := client.Send(bytes.Repeat([]byte{byte(i + 1)}, size)); err != nil {
				t.Fatal(err)
			}
			r.loop.Run()
		}
		return r.nb.App.BusyTotal() - busy, r.loop.Now() - start, got
	}
	busyCopy, tCopy, dataCopy := run(false)
	busyZero, tZero, dataZero := run(true)
	if len(dataCopy) != len(sizes) || len(dataZero) != len(sizes) {
		t.Fatalf("received %d and %d messages, want %d", len(dataCopy), len(dataZero), len(sizes))
	}
	var charge sim.Time
	for i := range sizes {
		if !bytes.Equal(dataCopy[i], dataZero[i]) {
			t.Fatalf("message %d differs between the modes", i)
		}
		charge += model.KB(model.Default().Selector.CopyPerKB, len(dataCopy[i]))
	}
	if busyCopy-busyZero != charge {
		t.Fatalf("receiving app thread busy %v copying, %v zero-copy: differ by %v, want the copy charge %v",
			busyCopy, busyZero, busyCopy-busyZero, charge)
	}
	if tZero >= tCopy {
		t.Fatalf("zero-copy receive (%v) not faster than copying (%v)", tZero, tCopy)
	}
}

func TestManyChannelsOneSelector(t *testing.T) {
	r := newRig(t, nil)
	cfg := DefaultConfig()
	srv, err := Listen(r.selB, 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	received := map[uint64]int{}
	r.selB.Register(srv, OpConnect, nil)
	r.selB.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			switch ch := k.Channel().(type) {
			case *ServerChannel:
				if k.Ready()&OpConnect != 0 {
					for {
						c := ch.Accept()
						if c == nil {
							break
						}
						r.selB.Register(c, OpReceive, nil)
					}
				}
			case *Channel:
				if k.Ready()&OpReceive != 0 {
					for {
						msg, ok := ch.Receive()
						if !ok {
							break
						}
						received[ch.ID()] += len(msg)
					}
				}
			}
		}
	})

	const nChans = 6
	var clients []*Channel
	r.loop.Post(func() {
		for i := 0; i < nChans; i++ {
			_, _ = Connect(r.selA, r.nb, 7, cfg, func(ch *Channel, err error) {
				if err != nil {
					t.Errorf("Connect: %v", err)
					return
				}
				clients = append(clients, ch)
			})
		}
	})
	r.loop.Run()
	if len(clients) != nChans {
		t.Fatalf("%d clients connected, want %d", len(clients), nChans)
	}
	r.loop.Post(func() {
		for i, c := range clients {
			_ = c.Send(bytes.Repeat([]byte{byte(i)}, (i+1)*100))
		}
	})
	r.loop.Run()
	if len(received) != nChans {
		t.Fatalf("messages arrived on %d channels, want %d: %v", len(received), nChans, received)
	}
	total := 0
	for _, n := range received {
		total += n
	}
	if want := 100 * (1 + 2 + 3 + 4 + 5 + 6); total != want {
		t.Fatalf("total bytes %d, want %d", total, want)
	}
}

func TestEchoThroughTwoSelectors(t *testing.T) {
	r := newRig(t, nil)
	client, server := r.connect(t, DefaultConfig())

	// Server: echo.
	r.selB.Register(server, OpReceive, nil)
	r.selB.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			if k.Ready()&OpReceive == 0 {
				continue
			}
			c := k.Channel().(*Channel)
			for {
				msg, ok := c.Receive()
				if !ok {
					break
				}
				if err := c.Send(msg); err != nil {
					t.Errorf("echo Send: %v", err)
				}
			}
		}
	})

	// Client: measure completion.
	var echoed [][]byte
	pumpReceiver(r.selA, client, &echoed)
	const n = 20
	var start, end sim.Time
	r.loop.Post(func() {
		start = r.loop.Now()
		for i := 0; i < n; i++ {
			_ = client.Send(bytes.Repeat([]byte{byte(i)}, 1024))
		}
	})
	r.loop.Run()
	end = r.loop.Now()
	if len(echoed) != n {
		t.Fatalf("echoed %d, want %d", len(echoed), n)
	}
	if end <= start {
		t.Fatal("no virtual time elapsed")
	}
	for i, m := range echoed {
		if len(m) != 1024 || m[0] != byte(i) {
			t.Fatalf("echo %d corrupted", i)
		}
	}
	// One channel per node: the selector's CQ pair serves exactly the
	// completions the channel's own pair did, so every wake-up, poll and
	// per-CQE charge lands as it did with per-channel CQs, to the
	// nanosecond — set-up included.
	if a, b := r.na.App.BusyTotal(), r.nb.App.BusyTotal(); a != 199*sim.Microsecond || b != 187*sim.Microsecond || end != 2320012 {
		t.Fatalf("app threads busy %v / %v, last event at %d ns: want 199µs / 187µs at 2320012 ns", a, b, end)
	}
}

func TestSendOnClosedChannelFails(t *testing.T) {
	r := newRig(t, nil)
	client, _ := r.connect(t, DefaultConfig())
	r.loop.Post(func() {
		client.Close()
		if err := client.Send([]byte("x")); err == nil {
			t.Error("Send after Close should fail")
		}
	})
	r.loop.Run()
	if !client.Closed() {
		t.Fatal("channel should report closed")
	}
}

func TestSelectorStatsAdvance(t *testing.T) {
	r := newRig(t, nil)
	client, server := r.connect(t, DefaultConfig())
	var got [][]byte
	pumpReceiver(r.selB, server, &got)
	r.loop.Post(func() {
		for i := 0; i < 5; i++ {
			_ = client.Send([]byte("stat"))
		}
	})
	r.loop.Run()
	if r.selB.events == 0 || r.selB.wakeups == 0 {
		t.Fatalf("selector stats did not advance: events=%d wakeups=%d", r.selB.events, r.selB.wakeups)
	}
	if r.selB.wakeups > r.selB.events {
		t.Fatal("wakeups cannot exceed events (batching invariant)")
	}
}

func TestReceiveOrderMatchesSendOrder(t *testing.T) {
	r := newRig(t, nil)
	client, server := r.connect(t, DefaultConfig())
	var got [][]byte
	pumpReceiver(r.selB, server, &got)
	const n = 40
	r.loop.Post(func() {
		for i := 0; i < n; i++ {
			// Mix sizes so DMA times differ; order must still hold.
			size := 64 + (i%7)*4096
			msg := bytes.Repeat([]byte{byte(i)}, size)
			if err := client.Send(msg); err != nil {
				t.Errorf("Send %d: %v", i, err)
			}
		}
	})
	r.loop.Run()
	if len(got) != n {
		t.Fatalf("received %d, want %d", len(got), n)
	}
	for i, m := range got {
		if m[0] != byte(i) {
			t.Fatalf("order violated at %d (got marker %d)", i, m[0])
		}
	}
}

func TestChannelIDsAreUnique(t *testing.T) {
	r := newRig(t, nil)
	cfg := DefaultConfig()
	a, _ := r.connect(t, cfg)
	// Second pair over a second port.
	srv2, err := Listen(r.selB, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var b *Channel
	r.selB.Register(srv2, OpConnect, nil)
	r.loop.Post(func() {
		_, _ = Connect(r.selA, r.nb, 8, cfg, func(ch *Channel, err error) { b = ch })
	})
	r.loop.Run()
	if b == nil {
		t.Fatal("second channel not established")
	}
	ka := r.selA.Register(a, 0, nil)
	kb := r.selA.Register(b, 0, nil)
	if ka.id == kb.id {
		t.Fatal("selection key IDs must be unique")
	}
	if fmt.Sprint(a.ID()) == "" {
		t.Fatal("unreachable")
	}
}

// Closing a channel deregisters its two buffer pools, so a close + re-dial
// loop (what every restart does) leaves the devices' registered-region
// counts where they started.
func TestCloseAndRedialReleasesPools(t *testing.T) {
	r := newRig(t, nil)
	cfg := DefaultConfig()
	srv, err := Listen(r.selB, 7, cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	var server *Channel
	r.selB.Register(srv, OpConnect, nil)
	r.selB.Select(func(keys []*SelectionKey) {
		for ch := srv.Accept(); ch != nil; ch = srv.Accept() {
			server = ch
		}
	})
	startA, startB := r.da.RegisteredMRs(), r.db.RegisteredMRs()
	for i := 0; i < 3; i++ {
		var client *Channel
		server = nil
		r.loop.Post(func() {
			_, _ = Connect(r.selA, r.nb, 7, cfg, func(ch *Channel, err error) { client = ch })
		})
		r.loop.Run()
		if client == nil || server == nil {
			t.Fatalf("dial %d: channel pair not established", i)
		}
		if a, b := r.da.RegisteredMRs(), r.db.RegisteredMRs(); a != startA+2 || b != startB+2 {
			t.Fatalf("dial %d: %d/%d regions registered, want %d/%d", i, a, b, startA+2, startB+2)
		}
		client.Close()
		server.fail()
		if a, b := r.da.RegisteredMRs(), r.db.RegisteredMRs(); a != startA || b != startB {
			t.Fatalf("dial %d: %d/%d regions still registered after close, want %d/%d", i, a, b, startA, startB)
		}
	}
}

// A received message is lent until the next Receive, which hands its
// memory back to the receive pool zeroed, in both modes: a receiver that
// kept the message itself instead of a copy reads zeros once the channel is
// drained, and the next message lands in that memory if it fits there.
func TestLentMessageIsZeroedWhenReused(t *testing.T) {
	for _, zeroCopy := range []bool{false, true} {
		r := newRig(t, zeroCopyModel(zeroCopy))
		cfg := DefaultConfig()
		cfg.RecvWRs = 1 // every message lands in the same slot
		client, server := r.connect(t, cfg)
		var lent, copies [][]byte
		r.selB.Register(server, OpReceive, nil)
		r.selB.Select(func([]*SelectionKey) {
			for msg, ok := server.Receive(); ok; msg, ok = server.Receive() {
				lent, copies = append(lent, msg), append(copies, bytes.Clone(msg))
			}
		})
		want := [][]byte{
			bytes.Repeat([]byte{0x11}, 300), bytes.Repeat([]byte{0x22}, 300),
			bytes.Repeat([]byte{0x33}, 64<<10), bytes.Repeat([]byte{0x44}, 64<<10),
		}
		for _, m := range want {
			r.loop.Post(func() { _ = client.Send(m) })
			r.loop.Run()
		}
		if len(copies) != len(want) {
			t.Fatalf("zerocopy=%v: received %d messages, want %d", zeroCopy, len(copies), len(want))
		}
		for i := range want {
			if !bytes.Equal(copies[i], want[i]) {
				t.Fatalf("zerocopy=%v: message %d arrived corrupted", zeroCopy, i)
			}
			if !bytes.Equal(lent[i], make([]byte, len(want[i]))) {
				t.Fatalf("zerocopy=%v: message %d still reads its bytes after the channel took its memory back", zeroCopy, i)
			}
		}
		if &lent[1][0] != &lent[0][0] || &lent[3][0] != &lent[2][0] {
			t.Fatalf("zerocopy=%v: a message did not land in the memory its predecessor gave back", zeroCopy)
		}
	}
}
