package bench

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/msgnet"
	"rubin/internal/pbft"
	"rubin/internal/shard"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// TestCheckFailsOnRejectedInboundFrame: a replica's mesh that had to reject
// an inbound frame did not run on a healthy network, and the health gate
// says so by the stat's name. An outsider dials replica 1's peer port in
// the middle of a put run and sends one msgnet chunk frame whose digest
// does not match its payload; every put still completes, so before
// msgnet.recv_errors was a gated stat such a run passed silently.
func TestCheckFailsOnRejectedInboundFrame(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		d := plainPBFT(t, kind)
		if err := d.check(); err != nil {
			t.Fatalf("%s: a started deployment is unhealthy: %v", kind, err)
		}
		const puts = 12
		finished := 0
		d.putLoop(2, 64, func(_, sent int) (string, bool) { return fmt.Sprintf("k%02d", sent), sent < puts },
			func(int, sim.Time) bool { finished++; return true })

		c := d.groups[0]
		outsider := c.Network.AddNode("outsider")
		c.Network.Connect(outsider, c.Node(1))
		stack, err := transport.NewStack(kind, outsider, msgnet.DefaultOptions().Transport)
		if err != nil {
			t.Fatal(err)
		}
		d.loop.Post(func() {
			stack.Dial(c.Node(1), pbft.PeerPort, func(conn transport.Conn, err error) {
				if err != nil {
					t.Errorf("%s: dial: %v", kind, err)
					return
				}
				// msgnet/frame.go: [kind 2 = chunk][class][stream u64][index u32]
				// [count u32][digest 32][prev 32][payload]. Chunk 0 of 2 on
				// stream 0, its digest left zero — no payload hashes to that.
				frame := make([]byte, 2+8+4+4+32+32+16)
				frame[0], frame[1] = 2, byte(msgnet.ClassBulk)
				binary.BigEndian.PutUint32(frame[14:], 2)
				if err := conn.Send(frame); err != nil {
					t.Errorf("%s: raw send: %v", kind, err)
				}
			})
		})
		d.loop.Run()
		if finished != puts {
			t.Fatalf("%s: %d of %d puts completed", kind, finished, puts)
		}
		if err := d.check(); err == nil || !strings.Contains(err.Error(), "msgnet.recv_errors") {
			t.Errorf("%s: check() = %v, want a failure naming msgnet.recv_errors", kind, err)
		}
	}
}

// TestOneGroupIsTheBenchmarkCluster: the experiments build plain PBFT as
// one group on one host set behind a router (deploy); the repository
// benchmark builds it through pbft.NewCluster and Cluster.AddClient. With
// one seed and configuration, on both stacks, the same puts and gets —
// the gets on the read fast path — at a window of 4 complete at the same
// instants with the same replies, and every replica host's application
// threads — a peer and a client selector each — were charged alike.
func TestOneGroupIsTheBenchmarkCluster(t *testing.T) {
	const seed, ops, window, timeout = 3, 60, 4, 2 * sim.Millisecond
	cfg := pbftConfig(4, 1, 0)
	// Operation i puts to one of eight keys; every third is a get.
	op := func(i int) []byte {
		key := fmt.Sprintf("k%d", i%8)
		if i%3 == 2 {
			return kvstore.EncodeOp(kvstore.OpGet, key, "")
		}
		return kvstore.EncodeOp(kvstore.OpPut, key, fmt.Sprintf("v%d", i))
	}
	type outcome struct {
		at    sim.Time
		reply string
	}
	drive := func(loop *sim.Loop, invoke func(op []byte, done func([]byte))) []outcome {
		got, next := make([]outcome, ops), 0
		var send func()
		send = func() {
			if next == ops {
				return
			}
			i := next
			next++
			invoke(op(i), func(res []byte) {
				got[i] = outcome{loop.Now(), string(res)}
				send()
			})
		}
		loop.Post(func() {
			for w := 0; w < window; w++ {
				send()
			}
		})
		loop.Run()
		return got
	}
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		c, err := pbft.NewCluster(kind, cfg, model.Default(), seed, func(int) pbft.Application { return kvstore.New() })
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		cl, err := c.AddClient()
		if err != nil {
			t.Fatal(err)
		}
		cl.EnableReadFastPath(c.Loop, timeout)
		want := drive(c.Loop, func(op []byte, done func([]byte)) {
			if code, _, _, _ := kvstore.DecodeOp(op); code == kvstore.OpGet {
				cl.InvokeRead(op, done)
			} else {
				cl.Invoke(op, done)
			}
		})

		d, err := deploy(deploySpec{kind: kind, seed: seed, conns: 1, readTimeout: timeout}, shard.Config{Shards: 1, PBFT: cfg}, oneHostSet, model.Default())
		if err != nil {
			t.Fatal(err)
		}
		got := drive(d.loop, func(op []byte, done func([]byte)) { d.fronts[0].InvokeOp(op, done) })

		for i := range want {
			if got[i] != want[i] || want[i].at == 0 {
				t.Fatalf("%s: operation %d completes at %d ns with %q through the router, at %d ns with %q through AddClient",
					kind, i, got[i].at, got[i].reply, want[i].at, want[i].reply)
			}
		}
		for i, host := range d.hosts {
			a, b := c.Node(i).Threads(), host.Threads()
			if len(a) != 2 || len(b) != 2 {
				t.Fatalf("%s: host %d runs %d application threads through AddClient, %d through the router; want a peer and a client selector", kind, i, len(a), len(b))
			}
			for k := range a {
				if a[k].Snapshot() != b[k].Snapshot() {
					t.Errorf("%s: host %d thread %d charged %v through AddClient, %v through the router", kind, i, k, a[k].Snapshot(), b[k].Snapshot())
				}
			}
		}
		if n, m := cl.FastReads(), d.fronts[0].Clients[0].FastReads(); n == 0 || n != m {
			t.Errorf("%s: %d fast reads through AddClient, %d through the router; want equal and positive", kind, n, m)
		}
		if err := d.check(); err != nil {
			t.Error(err)
		}
	}
}
