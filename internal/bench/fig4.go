package bench

import (
	"fmt"

	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/transport"
)

// Fig4Config parameterizes the selector-stack echo of Figure 4: an echo
// server on the Reptor communication stack comparing the RUBIN selector
// with the Java NIO selector, window size 30 and batching 10.
type Fig4Config struct {
	Payload  int
	Messages int
	Warmup   int
	Window   int // outstanding requests (paper: 30)
	Batch    int // messages coalesced per syscall/doorbell (paper: 10)
	Seed     int64
}

// RunFig4 measures one (kind, payload) point: mean request latency and
// closed-loop throughput through the full transport stack.
func RunFig4(kind transport.Kind, cfg Fig4Config, params model.Params) (EchoResult, error) {
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

	d := newEchoDriver(loop, EchoConfig{
		Payload: cfg.Payload, Messages: cfg.Messages, Warmup: cfg.Warmup, Window: cfg.Window, Seed: cfg.Seed,
	})
	clientConn.OnMessage(func(msg []byte) { d.completed() })
	payload := make([]byte, cfg.Payload)
	loop.Post(func() {
		d.start(func() { _ = clientConn.Send(payload) })
	})
	loop.Run()
	return d.result(Fig3Stack(kind))
}

// ---------------------------------------------------------------------------
// Registry entries: E3 (Figure 4a, latency) and E4 (Figure 4b, throughput).
// ---------------------------------------------------------------------------

func init() {
	Register(Experiment{
		Name: "E3", Title: "selector-stack echo latency (RUBIN vs Java NIO)", Figure: "Figure 4a",
		knobs: fig4Knobs,
		run: func(rc RunContext, v values, res *metrics.Result) error {
			return runFig4Suite(rc, v, res, true)
		},
	})
	Register(Experiment{
		Name: "E4", Title: "selector-stack echo throughput (RUBIN vs Java NIO)", Figure: "Figure 4b",
		knobs: fig4Knobs,
		run: func(rc RunContext, v values, res *metrics.Result) error {
			return runFig4Suite(rc, v, res, false)
		},
	})
}

var fig4Knobs = []knob{
	{name: "payloads_kb", def: "1,10,20,40,60,80,100", quick: "1,20", min: 1, list: true},
	{name: "messages", def: "1000", quick: "200", min: 1},
	{name: "warmup", def: "100", quick: "40"},
	{name: "window", def: "30", min: 1},
	{name: "batch", def: "10", min: 1},
}

// fig4SeriesNames label the two selector stacks the way the paper's legend
// does.
var fig4SeriesNames = map[transport.Kind]string{transport.KindRDMA: "Rubin", transport.KindTCP: "TCP"}

// runFig4Suite sweeps both selector stacks; latency selects Figure 4a,
// otherwise Figure 4b.
func runFig4Suite(rc RunContext, v values, res *metrics.Result, latency bool) error {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		name := fig4SeriesNames[kind]
		var mean, p99, tput *metrics.ResultSeries
		if latency {
			mean = res.AddSeries(name, metrics.MetricLatencyMean, "us", string(kind), "payload_kb")
			p99 = res.AddSeries(name, metrics.MetricLatencyP99, "us", string(kind), "payload_kb")
		} else {
			tput = res.AddSeries(name, metrics.MetricThroughput, "req/s", string(kind), "payload_kb")
		}
		for _, kb := range v.ints("payloads_kb") {
			cfg := Fig4Config{Payload: kb << 10, Messages: v.int("messages"), Warmup: v.int("warmup"),
				Window: v.int("window"), Batch: v.int("batch"), Seed: rc.Seed}
			r, err := RunFig4(kind, cfg, rc.Model)
			if err != nil {
				return err
			}
			if latency {
				mean.Add(float64(kb), r.MeanRT.Micros())
				p99.Add(float64(kb), r.P99RT.Micros())
			} else {
				tput.Add(float64(kb), r.Throughput)
			}
		}
	}
	return nil
}
