package rubin

import (
	"bytes"
	"testing"

	"rubin/internal/model"
	"rubin/internal/sim"
)

// connectN connects k channel pairs over one listener on port 7: the clients
// on node a, the channels node b accepted, each list in establishment order.
func (r *rig) connectN(t *testing.T, cfg Config, k int) (clients, servers []*Channel) {
	t.Helper()
	srv, err := Listen(r.selB, 7, cfg)
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	r.selB.Register(srv, OpConnect, nil)
	r.selB.Select(func([]*SelectionKey) {
		for ch := srv.Accept(); ch != nil; ch = srv.Accept() {
			servers = append(servers, ch)
		}
	})
	r.loop.Post(func() {
		for i := 0; i < k; i++ {
			if _, err := Connect(r.selA, r.nb, 7, cfg, func(ch *Channel, err error) {
				if err != nil {
					t.Errorf("Connect: %v", err)
					return
				}
				clients = append(clients, ch)
			}); err != nil {
				t.Errorf("Connect setup: %v", err)
			}
		}
	})
	r.loop.Run()
	if len(clients) != k || len(servers) != k {
		t.Fatalf("%d clients and %d accepted channels, want %d each", len(clients), len(servers), k)
	}
	return clients, servers
}

// countReceives registers every channel for OpReceive on sel and counts what
// each receives, by position in chans.
func countReceives(sel *Selector, chans []*Channel) []int {
	got := make([]int, len(chans))
	for i, c := range chans {
		sel.Register(c, OpReceive, i)
	}
	sel.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			for {
				if _, ok := k.Channel().(*Channel).Receive(); !ok {
					break
				}
				got[k.Attachment().(int)]++
			}
		}
	})
	return got
}

// The selector's CQ pair is what one wake-up serves: k channels whose
// messages land while the node's app thread is busy cost it one 2 µs
// completion event and one poll between them, on top of each message's own
// work (its receive copy and the slot's re-post). Per-channel CQs would
// charge every channel its own event and poll.
func TestOneWakeUpServesEveryChannel(t *testing.T) {
	const k = 6
	const hold = 200 * sim.Microsecond // ample for every message to land
	msg := bytes.Repeat([]byte{7}, 1024)
	appWork := func(k int) sim.Time {
		r := newRig(t, nil)
		clients, servers := r.connectN(t, DefaultConfig(), k)
		got := countReceives(r.selB, servers)
		busy := r.nb.App.BusyTotal()
		r.loop.Post(func() {
			r.nb.App.Delay(model.Execute, hold)
			for _, c := range clients {
				if err := c.Send(msg); err != nil {
					t.Fatal(err)
				}
			}
		})
		r.loop.Run()
		for i, n := range got {
			if n != 1 {
				t.Fatalf("k=%d: channel %d received %d messages, want 1", k, i, n)
			}
		}
		return r.nb.App.BusyTotal() - busy - hold
	}
	one, all := appWork(1), appWork(k)
	p := model.Default()
	perMessage := model.KB(p.Selector.CopyPerKB, len(msg)) + p.RDMA.RecvWRRefill
	if want := one + (k-1)*perMessage; all != want {
		t.Fatalf("%d channels cost the app thread %v, one channel %v: want %v, one wake-up and one poll for all (%v more would be one per channel)",
			k, all, one, want, (k-1)*(2*sim.Microsecond+p.RDMA.CQPoll))
	}
}

// Every channel of a selector fills its send and its receive pool while the
// app thread is held, so every completion they can have waits in the CQ pair
// at once: all send slots signaled, all receive slots landed. The pair was
// grown by each channel's share, so nothing overruns, and every CQE reaches
// its channel.
func TestSharedCQsHoldEveryChannelsFullPools(t *testing.T) {
	const k, depth = 4, 8
	const hold = 2 * sim.Millisecond
	r := newRig(t, nil)
	cfg := DefaultConfig()
	cfg.SendWRs, cfg.RecvWRs, cfg.SignalInterval = depth, depth, 1
	clients, servers := r.connectN(t, cfg, k)
	if got, want := r.selB.sendCQ.Capacity(), 1+k*(depth+1); got != want {
		t.Fatalf("send CQ holds %d, want %d: one per WR and one error completion per channel", got, want)
	}
	if got, want := r.selB.recvCQ.Capacity(), 1+k*depth; got != want {
		t.Fatalf("receive CQ holds %d, want %d: one per receive WR", got, want)
	}
	atServers := countReceives(r.selB, servers)
	atClients := countReceives(r.selA, clients)
	msg := bytes.Repeat([]byte{3}, 2048)
	start := r.loop.Now()
	r.loop.Post(func() {
		for i := 0; i < depth; i++ {
			for j := 0; j < k; j++ {
				if servers[j].Send(msg) != nil || clients[j].Send(msg) != nil {
					t.Fatal("a send within the pool depth failed")
				}
			}
		}
		r.loop.Post(func() { r.nb.App.Delay(model.Execute, hold) }) // behind the doorbells
	})
	r.loop.At(start+hold-sim.Microsecond, func() {
		delivered := 0
		for j, s := range servers {
			delivered += atClients[j]
			if s.signaled != 0 || s.inbox.Len() != 0 {
				t.Fatalf("channel %d: before the held app thread ran, %d sends were retired and %d messages taken, want none",
					j, s.signaled, s.inbox.Len())
			}
		}
		if delivered != k*depth {
			t.Fatalf("before the held app thread ran, its peers had %d of its %d messages", delivered, k*depth)
		}
	})
	r.loop.Run()
	// An overrun would have failed every channel's QP, and with it the
	// channel at its next re-post.
	for j, s := range servers {
		if s.Closed() || s.signaled != depth || s.SendCapacity() != depth || atServers[j] != depth {
			t.Errorf("channel %d: closed %v, %d signaled completions, send capacity %d, %d received: want false, %d, %d, %d",
				j, s.Closed(), s.signaled, s.SendCapacity(), atServers[j], depth, depth, depth)
		}
	}
}

// A channel closed while its completions wait in the shared CQs leaves the
// QPN table and gives its share of the pair back; its completions, those
// queued and those still on the wire, go nowhere, and the channel beside it
// receives everything.
func TestClosedChannelLeavesTheQPNTable(t *testing.T) {
	const hold = 500 * sim.Microsecond
	r := newRig(t, nil)
	cfg := DefaultConfig()
	clients, servers := r.connectN(t, cfg, 2)
	got := countReceives(r.selB, servers)
	closed, open := servers[0], servers[1]
	sendCap, recvCap := r.selB.sendCQ.Capacity(), r.selB.recvCQ.Capacity()
	msg := bytes.Repeat([]byte{9}, 512)
	send := func(n int) {
		for i := 0; i < n; i++ {
			for _, c := range clients {
				if err := c.Send(msg); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	start := r.loop.Now()
	r.loop.Post(func() {
		r.nb.App.Delay(model.Execute, hold)
		send(3)
	})
	r.loop.At(start+hold/2, func() {
		closed.Close()
		send(2) // lands after the close
	})
	r.loop.Run()
	if qpn := closed.qp.Num(); r.selB.byQPN[qpn] != nil {
		t.Fatalf("closed channel's QPN %d still maps to a channel", qpn)
	}
	if r.selB.byQPN[open.qp.Num()] != open {
		t.Fatal("open channel left the QPN table")
	}
	if s, rc := r.selB.sendCQ.Capacity(), r.selB.recvCQ.Capacity(); s != sendCap-cfg.SendWRs-1 || rc != recvCap-cfg.RecvWRs {
		t.Fatalf("CQ pair holds %d/%d after the close, want %d/%d", s, rc, sendCap-cfg.SendWRs-1, recvCap-cfg.RecvWRs)
	}
	if got[0] != 0 || closed.inbox.Len() != 0 || closed.received != 0 {
		t.Fatalf("closed channel received %d messages (%d landed), want none", got[0], closed.received)
	}
	if got[1] != 5 || open.Closed() {
		t.Fatalf("open channel received %d of 5 messages (closed: %v)", got[1], open.Closed())
	}
}
