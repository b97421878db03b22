// Quickstart: an echo client/server over the RUBIN channel and selector —
// the paper's Figure 1 components in ~60 lines of application code.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/rdma"
	"rubin/internal/rubin"
	"rubin/internal/sim"
)

func main() {
	// The simulated testbed: two hosts on a 10 Gbps RDMA-capable link.
	loop := sim.NewLoop(42)
	params := model.Default()
	nw := fabric.New(loop, params)
	clientNode, serverNode := nw.AddNode("client"), nw.AddNode("server")
	nw.Connect(clientNode, serverNode)

	clientDev, serverDev := rdma.OpenDevice(clientNode), rdma.OpenDevice(serverNode)
	clientSel, serverSel := rubin.NewSelector(clientDev), rubin.NewSelector(serverDev)

	cfg := rubin.DefaultConfig(params)

	// Server: accept channels via OpConnect, echo messages via OpReceive.
	srv, err := rubin.Listen(serverSel, 7000, cfg)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	serverSel.Register(srv, rubin.OpConnect, nil)
	serverSel.Select(func(keys []*rubin.SelectionKey) {
		for _, k := range keys {
			switch ch := k.Channel().(type) {
			case *rubin.ServerChannel:
				if k.Ready()&rubin.OpConnect != 0 {
					for {
						c := ch.Accept()
						if c == nil {
							break
						}
						fmt.Printf("server: accepted channel id=%d\n", c.ID())
						serverSel.Register(c, rubin.OpReceive, nil)
					}
				}
			case *rubin.Channel:
				if k.Ready()&rubin.OpReceive != 0 {
					for {
						msg, ok := ch.Receive()
						if !ok {
							break
						}
						if err := ch.Send(msg); err != nil {
							log.Fatalf("echo send: %v", err)
						}
					}
				}
			}
		}
	})

	// Client: connect, send a few messages, measure round trips.
	var client *rubin.Channel
	_, err = rubin.Connect(clientSel, serverNode, 7000, cfg, func(ch *rubin.Channel, err error) {
		if err != nil {
			log.Fatalf("connect: %v", err)
		}
		client = ch
	})
	if err != nil {
		log.Fatalf("connect setup: %v", err)
	}
	loop.Run()

	sent := map[int]sim.Time{}
	received := 0
	const messages = 5
	clientSel.Register(client, rubin.OpReceive, nil)
	clientSel.Select(func(keys []*rubin.SelectionKey) {
		for _, k := range keys {
			ch, ok := k.Channel().(*rubin.Channel)
			if !ok || k.Ready()&rubin.OpReceive == 0 {
				continue
			}
			for {
				msg, ok := ch.Receive()
				if !ok {
					break
				}
				rtt := loop.Now() - sent[received]
				fmt.Printf("client: echo %d (%d bytes) RTT=%v\n", received, len(msg), rtt)
				received++
			}
		}
	})

	loop.Post(func() {
		for i := 0; i < messages; i++ {
			payload := make([]byte, 1<<10*(i+1)) // 1..5 KB
			sent[i] = loop.Now()
			if err := client.Send(payload); err != nil {
				log.Fatalf("send: %v", err)
			}
		}
	})
	loop.Run()

	fmt.Printf("\ndone: %d echoes, %d send completions signaled (selective signaling interval %d)\n",
		received, client.SignaledCompletions(), cfg.SignalInterval)
}
