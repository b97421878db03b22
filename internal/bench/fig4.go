package bench

import (
	"fmt"

	"rubin/internal/model"
	"rubin/internal/transport"
)

// RunFig4 measures one (kind, payload) point of Figure 4 — an echo server
// on the Reptor communication stack comparing the RUBIN selector with the
// Java NIO selector, window size 30 and batching 10: mean request latency
// and closed-loop throughput through the full transport stack.
func RunFig4(kind transport.Kind, cfg EchoConfig, params model.Params) (EchoResult, error) {
	loop, cn, sn := twoNodes(cfg.Seed, params)

	opts := transport.DefaultOptions()
	opts.Batch = cfg.Batch
	if cfg.Payload > opts.MaxMessage {
		opts.MaxMessage = cfg.Payload
	}
	cs, err := transport.NewStack(kind, cn, opts)
	if err != nil {
		return EchoResult{}, err
	}
	ss, err := transport.NewStack(kind, sn, opts)
	if err != nil {
		return EchoResult{}, err
	}

	var serverConn transport.Conn
	if err := ss.Listen(9, func(c transport.Conn) {
		serverConn = c
		c.OnMessage(func(msg []byte) { _ = c.Send(msg) })
	}); err != nil {
		return EchoResult{}, err
	}
	var clientConn transport.Conn
	var dialErr error
	loop.Post(func() {
		cs.Dial(sn, 9, func(c transport.Conn, err error) { clientConn, dialErr = c, err })
	})
	loop.Run()
	if dialErr != nil || clientConn == nil || serverConn == nil {
		return EchoResult{}, fmt.Errorf("bench: fig4 setup failed: %v", dialErr)
	}

	d := newEchoDriver(loop, cfg)
	clientConn.OnMessage(func(msg []byte) { d.completed() })
	payload := make([]byte, cfg.Payload)
	loop.Post(func() {
		d.start(func() { _ = clientConn.Send(payload) })
	})
	loop.Run()
	return d.result()
}

// Registry entries: E3 (Figure 4a, latency) and E4 (Figure 4b,
// throughput); the curves are labelled the way the paper's legend does.
func init() {
	var curves []echoCurve
	for _, c := range []struct {
		name string
		kind transport.Kind
	}{{"Rubin", transport.KindRDMA}, {"TCP", transport.KindTCP}} {
		curves = append(curves, echoCurve{c.name, string(c.kind), func(cfg EchoConfig, p model.Params) (EchoResult, error) {
			return RunFig4(c.kind, cfg, p)
		}})
	}
	registerEchoFigure(
		Experiment{Name: "E3", Title: "selector-stack echo latency (RUBIN vs Java NIO)", Figure: "Figure 4a"},
		Experiment{Name: "E4", Title: "selector-stack echo throughput (RUBIN vs Java NIO)", Figure: "Figure 4b"},
		[]knob{
			{name: "payloads_kb", def: "1,10,20,40,60,80,100", quick: "1,20", min: 1, list: true},
			{name: "messages", def: "1000", quick: "200", min: 1},
			{name: "warmup", def: "100", quick: "40"},
			{name: "window", def: "30", min: 1},
			{name: "batch", def: "10", min: 1},
		}, curves, "req/s", 1)
}
