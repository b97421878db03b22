// Quickstart: the paper's Figure 1 components — an echo client and server
// over the RUBIN channel and selector — and then the system they carry: a
// 4-replica PBFT key/value store over rdma-rubin whose leader crashes on a
// chaos script mid-workload. The second part checks itself and exits 1 if a
// write is lost or the surviving replicas' states differ.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"rubin/internal/chaos"
	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/pbft"
	"rubin/internal/rdma"
	"rubin/internal/rubin"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

func main() {
	echo()
	replicate()
}

// check ends the program on an error.
func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}

// echo sends five messages of 1–5 KB over a RUBIN channel to a server that
// echoes them, and prints each round trip.
func echo() {
	// The simulated testbed: two hosts on a 10 Gbps RDMA-capable link.
	loop := sim.NewLoop(42)
	nw := fabric.New(loop, model.Default())
	clientNode, serverNode := nw.AddNode("client"), nw.AddNode("server")
	nw.Connect(clientNode, serverNode)
	clientSel, serverSel := rubin.NewSelector(rdma.OpenDevice(clientNode)), rubin.NewSelector(rdma.OpenDevice(serverNode))
	cfg := rubin.DefaultConfig()

	// Server: accept channels via OpConnect, echo messages via OpReceive.
	srv, err := rubin.Listen(serverSel, 7000, cfg)
	check(err)
	serverSel.Register(srv, rubin.OpConnect, nil)
	serverSel.Select(func(keys []*rubin.SelectionKey) {
		for _, k := range keys {
			switch ch := k.Channel().(type) {
			case *rubin.ServerChannel:
				for c := ch.Accept(); c != nil; c = ch.Accept() {
					fmt.Printf("server: accepted channel id=%d\n", c.ID())
					serverSel.Register(c, rubin.OpReceive, nil)
				}
			case *rubin.Channel:
				for msg, ok := ch.Receive(); ok; msg, ok = ch.Receive() {
					check(ch.Send(msg))
				}
			}
		}
	})

	// Client: connect, send a few messages, measure round trips.
	var client *rubin.Channel
	_, err = rubin.Connect(clientSel, serverNode, 7000, cfg, func(ch *rubin.Channel, err error) {
		check(err)
		client = ch
	})
	check(err)
	loop.Run()

	var sent [5]sim.Time
	received := 0
	clientSel.Register(client, rubin.OpReceive, nil)
	clientSel.Select(func(keys []*rubin.SelectionKey) {
		for _, k := range keys {
			ch, ok := k.Channel().(*rubin.Channel)
			if !ok || k.Ready()&rubin.OpReceive == 0 {
				continue
			}
			for msg, ok := ch.Receive(); ok; msg, ok = ch.Receive() {
				fmt.Printf("client: echo %d (%d bytes) RTT=%v\n", received, len(msg), loop.Now()-sent[received])
				received++
			}
		}
	})
	loop.Post(func() {
		for i := range sent {
			sent[i] = loop.Now()
			check(client.Send(make([]byte, 1<<10*(i+1))))
		}
	})
	loop.Run()
	fmt.Printf("done: %d echoes, %d send completions signaled (selective signaling interval %d)\n\n",
		received, client.SignaledCompletions(), cfg.SignalInterval)
}

// replicate runs a 4-replica key/value store over rdma-rubin. Its view-0
// leader crashes 20 ms in; three writes go before the crash and three after
// it, which only the leader a view change installs can order.
func replicate() {
	cluster, err := pbft.NewCluster(transport.KindRDMA, pbft.DefaultConfig(), model.Default(), 11,
		func(int) pbft.Application { return kvstore.New() })
	check(err)
	check(cluster.Start())
	client, err := cluster.AddClient()
	check(err)
	loop := cluster.Loop
	for i, rep := range cluster.Replicas {
		rep.OnViewChange(func(v uint64) {
			fmt.Printf("t=%v replica %d installed view %d, led by replica %d\n", loop.Now(), i, v, rep.Leader(v))
		})
	}
	sched := chaos.Apply(cluster, chaos.NewScenario("leader-crash").Crash(20*sim.Millisecond, 0))
	base, done := loop.Now(), 0
	for w := 0; w < 6; w++ {
		key := fmt.Sprintf("key-%d", w)
		loop.At(base+sim.Time(w/3)*30*sim.Millisecond, func() {
			t0 := loop.Now()
			client.Invoke(kvstore.EncodeOp(kvstore.OpPut, key, "v"), func([]byte) {
				done++
				fmt.Printf("t=%v put %s committed in %v\n", loop.Now(), key, loop.Now()-t0)
			})
		})
	}
	loop.RunUntil(base + 300*sim.Millisecond)
	check(sched.Err())
	fmt.Printf("fault timeline:\n%s", sched.TraceString())

	// The survivors must hold one state, with every write in it.
	state, diverged := cluster.Apps[1].Snapshot(), false
	for i := 1; i < len(cluster.Replicas); i++ {
		s := cluster.Apps[i].Snapshot()
		diverged = diverged || s != state
		fmt.Printf("replica %d: view %d, executed %d, state %x\n", i, cluster.Replicas[i].View(), cluster.Replicas[i].Executed(), s[:6])
	}
	if done != 6 || diverged {
		log.Fatalf("%d of 6 writes committed; surviving replicas in one state: %v", done, !diverged)
	}
	fmt.Println("the leader's crash lost no write, and the surviving replicas agree")
}
