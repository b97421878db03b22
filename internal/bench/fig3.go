// Package bench is the benchmark-suite subsystem: an experiment registry
// regenerating the paper's evaluation and its extensions, with every
// experiment emitting machine-readable results.
//
// Experiments E1–E12 register themselves (from their defining
// files' init functions) as Experiment values: E1/E2 reproduce Figure 3
// (transport micro-benchmark), E3/E4 Figure 4 (RUBIN vs Java-NIO selector
// over the Reptor communication stack), E5 the full replicated-system
// evaluation the paper lists as future work, E6 ablations of the Section
// IV optimizations, E7 agreement under a scripted fault timeline, E8 the
// scaling study (PBFT cluster size, Reptor COP parallelism), E9–E11 the
// traffic studies (workload shape, shard scale-out, read fast path) and
// E12 the state-size study. Every replicated-system experiment builds its
// system through one deployment value (deploy.go) and each experiment's
// parameters are one declarative knob table (registry.go). Run executes
// one experiment under a
// RunContext (seed, quick mode, cost model, knob overrides) and returns a
// validated metrics.Result; cmd/benchsuite persists those as
// BENCH_<name>.json and diffs them across runs. Knob names and the
// result schema are documented in docs/EXPERIMENTS.md.
package bench

import (
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/rdma"
	"rubin/internal/rubin"
	"rubin/internal/sim"
	"rubin/internal/tcpsim"
)

// EchoConfig parameterizes one echo measurement.
type EchoConfig struct {
	Payload  int // message size in bytes
	Messages int // measured round trips
	Warmup   int // unmeasured round trips
	Window   int // outstanding messages (Figure 3 streams with 3, Figure 4 with 30)
	Batch    int // Figure 4 only: messages coalesced per syscall/doorbell (paper: 10)
	Seed     int64
}

// EchoResult is one measurement point.
type EchoResult struct {
	MeanRT     sim.Time // mean request round-trip latency
	P99RT      sim.Time
	Throughput float64 // requests per second (closed loop)
}

// ---------------------------------------------------------------------------
// Registry entries: E1/E2 (Figure 3a/3b) here, E3/E4 (Figure 4a/4b) in
// fig4.go — each figure is one list of curves registered twice.
// ---------------------------------------------------------------------------

// echoCurve is one series of an echo figure: its legend name, the backend
// label its series carry, and the measurement of one point.
type echoCurve struct {
	name, backend string
	run           func(EchoConfig, model.Params) (EchoResult, error)
}

// echoConfig reads one sweep point's configuration from an echo
// experiment's knobs (batch only where the experiment declares it).
func echoConfig(rc RunContext, v values, kb int) EchoConfig {
	cfg := EchoConfig{Payload: kb << 10, Messages: v.int("messages"), Warmup: v.int("warmup"), Window: v.int("window"), Seed: rc.Seed}
	if batch := v.ints("batch"); len(batch) > 0 {
		cfg.Batch = batch[0]
	}
	return cfg
}

// registerEchoFigure registers the two experiments of an echo figure over
// one list of curves: lat (panel a) reports mean and p99 round trip in µs,
// tput (panel b) closed-loop requests per second divided by tputScale, in
// tputUnit. Both sweep every curve over payloads_kb.
func registerEchoFigure(lat, tput Experiment, knobs []knob, curves []echoCurve, tputUnit string, tputScale float64) {
	sweep := func(latency bool) func(RunContext, values, *metrics.Result) error {
		return func(rc RunContext, v values, res *metrics.Result) error {
			for _, c := range curves {
				var mean, p99, rate *metrics.ResultSeries
				if latency {
					mean = res.AddSeries(c.name, metrics.MetricLatencyMean, "us", c.backend, "payload_kb")
					p99 = res.AddSeries(c.name, metrics.MetricLatencyP99, "us", c.backend, "payload_kb")
				} else {
					rate = res.AddSeries(c.name, metrics.MetricThroughput, tputUnit, c.backend, "payload_kb")
				}
				for _, kb := range v.ints("payloads_kb") {
					r, err := c.run(echoConfig(rc, v, kb), rc.Model)
					if err != nil {
						return fmt.Errorf("%s %d KB: %w", c.name, kb, err)
					}
					if latency {
						mean.Add(float64(kb), r.MeanRT.Micros())
						p99.Add(float64(kb), r.P99RT.Micros())
					} else {
						rate.Add(float64(kb), r.Throughput/tputScale)
					}
				}
			}
			return nil
		}
	}
	lat.knobs, lat.run = knobs, sweep(true)
	tput.knobs, tput.run = knobs, sweep(false)
	Register(lat)
	Register(tput)
}

// The four series of Figure 3, in the paper's legend order.
func init() {
	curves := []echoCurve{
		{"TCP", "tcp", echoTCP},
		{"RDMA Send/Recv", "rdma", echoSendRecv},
		{"RDMA Read/Write", "rdma", echoOneSided},
		{"RDMA Channel", "rdma", echoChannel},
	}
	registerEchoFigure(
		Experiment{Name: "E1", Title: "echo latency across transport stacks", Figure: "Figure 3a"},
		Experiment{Name: "E2", Title: "echo throughput across transport stacks", Figure: "Figure 3b"},
		[]knob{
			{name: "payloads_kb", def: "1,2,4,8,16,32,64,100", quick: "1,16", min: 1, list: true},
			{name: "messages", def: "1000", quick: "150", min: 1},
			{name: "warmup", def: "50", quick: "20"},
			{name: "window", def: "3", min: 1},
		}, curves, "krps", 1000)
}

// twoNodes builds the two-machine testbed of the paper's evaluation.
func twoNodes(seed int64, params model.Params) (*sim.Loop, *fabric.Node, *fabric.Node) {
	loop := sim.NewLoop(seed)
	nw := fabric.New(loop, params)
	a, b := nw.AddNode("client"), nw.AddNode("server")
	nw.Connect(a, b)
	return loop, a, b
}

// echoDriver runs the common closed-loop measurement: send() transmits one
// payload; the transport calls completed() per finished round trip.
type echoDriver struct {
	loop    *sim.Loop
	cfg     EchoConfig
	rec     *metrics.Recorder
	sendFn  func()
	started sim.Queue[sim.Time]
	sent    int
	done    int
	startAt sim.Time
	endAt   sim.Time
}

func newEchoDriver(loop *sim.Loop, cfg EchoConfig) *echoDriver {
	return &echoDriver{loop: loop, cfg: cfg, rec: metrics.NewRecorder()}
}

func (d *echoDriver) total() int { return d.cfg.Messages + d.cfg.Warmup }

// start primes the pipeline with Window outstanding messages.
func (d *echoDriver) start(send func()) {
	d.sendFn = send
	for i := 0; i < d.cfg.Window && d.sent < d.total(); i++ {
		d.sendOne()
	}
}

func (d *echoDriver) sendOne() {
	if d.sent == d.cfg.Warmup {
		d.startAt = d.loop.Now()
	}
	d.sent++
	d.started.Push(d.loop.Now())
	d.sendFn()
}

// completed records one round trip and refills the pipeline.
func (d *echoDriver) completed() {
	if d.started.Len() == 0 {
		return
	}
	t0 := d.started.Pop()
	d.done++
	if d.done > d.cfg.Warmup {
		d.rec.Record(d.loop.Now() - t0)
		d.endAt = d.loop.Now()
	}
	if d.sent < d.total() {
		d.sendOne()
	}
}

// result is the measurement once the loop has drained; an echo that
// wedged part-way is an error, not a mean over whatever finished.
func (d *echoDriver) result() (EchoResult, error) {
	if d.done != d.total() {
		return EchoResult{}, fmt.Errorf("bench: echo completed %d of %d round trips", d.done, d.total())
	}
	return EchoResult{
		MeanRT:     d.rec.Mean(),
		P99RT:      d.rec.Percentile(99),
		Throughput: metrics.Throughput(d.rec.Count(), d.endAt-d.startAt),
	}, nil
}

// ---------------------------------------------------------------------------
// TCP series: raw simulated sockets (no selector), byte-counted echo.
// ---------------------------------------------------------------------------

func echoTCP(cfg EchoConfig, params model.Params) (EchoResult, error) {
	loop, cn, sn := twoNodes(cfg.Seed, params)
	cs, ss := tcpsim.NewStack(cn), tcpsim.NewStack(sn)

	var serverConn *tcpsim.Conn
	if _, err := ss.Listen(9, func(c *tcpsim.Conn) { serverConn = c }); err != nil {
		return EchoResult{}, err
	}
	var clientConn *tcpsim.Conn
	var dialErr error
	loop.At(0, func() {
		cs.Dial(sn, 9, func(c *tcpsim.Conn, err error) {
			clientConn, dialErr = c, err
		})
	})
	loop.Run()
	if dialErr != nil || clientConn == nil || serverConn == nil {
		return EchoResult{}, fmt.Errorf("bench: tcp setup failed: %v", dialErr)
	}

	d := newEchoDriver(loop, cfg)
	payload := make([]byte, cfg.Payload)
	buf := make([]byte, 256<<10)

	// Server: echo every byte back.
	serverConn.OnReadable(func() {
		for {
			n, _ := serverConn.Read(buf)
			if n == 0 {
				return
			}
			rest := buf[:n]
			for len(rest) > 0 {
				w, _ := serverConn.Write(rest)
				if w == 0 {
					return // window closed; rely on further reads to drain
				}
				rest = rest[w:]
			}
		}
	})

	// Client: count echoed bytes; every Payload bytes completes one RT.
	echoed := 0
	clientConn.OnReadable(func() {
		for {
			n, _ := clientConn.Read(buf)
			if n == 0 {
				return
			}
			echoed += n
			for echoed >= cfg.Payload {
				echoed -= cfg.Payload
				d.completed()
			}
		}
	})

	loop.Post(func() {
		d.start(func() {
			rest := payload
			for len(rest) > 0 {
				w, _ := clientConn.Write(rest)
				if w == 0 {
					break
				}
				rest = rest[w:]
			}
		})
	})
	loop.Run()
	return d.result()
}

// ---------------------------------------------------------------------------
// RDMA Send/Recv series: raw verbs, every send signaled, explicit staging
// copies — the unoptimized two-sided baseline of the paper.
// ---------------------------------------------------------------------------

func echoSendRecv(cfg EchoConfig, params model.Params) (EchoResult, error) {
	loop, cn, sn := twoNodes(cfg.Seed, params)
	cd, sd := rdma.OpenDevice(cn), rdma.OpenDevice(sn)

	qprs, err := connectQPs(loop, cd, sd, cfg)
	if err != nil {
		return EchoResult{}, err
	}
	cqp, sqp := qprs.client, qprs.server

	d := newEchoDriver(loop, cfg)

	// Server: echo each received message straight from registered memory
	// (perftest style: the raw verbs baseline does no staging copies);
	// re-post the receive buffer afterwards.
	serverSend := func(slot int, bytes int) {
		wr := &rdma.SendWR{ID: uint64(slot), Op: rdma.OpSend,
			MR: qprs.serverSendMR, Offset: slot * cfg.Payload, Length: bytes, Signaled: true}
		_ = sqp.PostSend(wr)
	}
	qprs.serverRecvCQ.OnEvent(func() {
		pollAll(qprs.serverRecvCQ, func(cqe rdma.CQE) {
			slot := int(cqe.WRID)
			serverSend(slot, cqe.Bytes)
			_ = sqp.PostRecv(rdma.RecvWR{ID: cqe.WRID, MR: qprs.serverRecvMR,
				Offset: slot * cfg.Payload, Length: cfg.Payload})
		})
		qprs.serverRecvCQ.RequestNotify()
	})
	qprs.serverRecvCQ.RequestNotify()
	// Pay for every signaled send completion individually — the naive
	// baseline processes one completion event per message; this is the
	// cost RUBIN's selective signaling amortizes away.
	drainCQStrict(qprs.serverSendCQ, sn.App, params)

	// Client: completion of an echo per received message.
	qprs.clientRecvCQ.OnEvent(func() {
		pollAll(qprs.clientRecvCQ, func(cqe rdma.CQE) {
			slot := int(cqe.WRID)
			_ = cqp.PostRecv(rdma.RecvWR{ID: cqe.WRID, MR: qprs.clientRecvMR,
				Offset: slot * cfg.Payload, Length: cfg.Payload})
			d.completed()
		})
		qprs.clientRecvCQ.RequestNotify()
	})
	qprs.clientRecvCQ.RequestNotify()
	drainCQStrict(qprs.clientSendCQ, cn.App, params)

	sendSlot := 0
	loop.Post(func() {
		d.start(func() {
			slot := sendSlot % qpSlots
			sendSlot++
			wr := &rdma.SendWR{ID: uint64(slot), Op: rdma.OpSend,
				MR: qprs.clientSendMR, Offset: slot * cfg.Payload, Length: cfg.Payload, Signaled: true}
			_ = cqp.PostSend(wr)
		})
	})
	loop.Run()
	return d.result()
}

// ---------------------------------------------------------------------------
// RDMA Read/Write series: one-sided writes, no server involvement — the
// paper measures the client writing without waiting for an application
// response.
// ---------------------------------------------------------------------------

func echoOneSided(cfg EchoConfig, params model.Params) (EchoResult, error) {
	loop, cn, sn := twoNodes(cfg.Seed, params)
	cd, sd := rdma.OpenDevice(cn), rdma.OpenDevice(sn)

	qprs, err := connectQPs(loop, cd, sd, cfg)
	if err != nil {
		return EchoResult{}, err
	}
	cqp := qprs.client

	d := newEchoDriver(loop, cfg)

	// Completion = hardware ack of the write; the server CPU never runs.
	qprs.clientSendCQ.OnEvent(func() {
		pollAll(qprs.clientSendCQ, func(rdma.CQE) { d.completed() })
		qprs.clientSendCQ.RequestNotify()
	})
	qprs.clientSendCQ.RequestNotify()

	slotN := 0
	loop.Post(func() {
		d.start(func() {
			slot := slotN % qpSlots
			slotN++
			off := slot * cfg.Payload
			wr := &rdma.SendWR{ID: uint64(slot), Op: rdma.OpWrite,
				MR: qprs.clientSendMR, Offset: off, Length: cfg.Payload,
				RemoteKey: qprs.clientRemoteKey, RemoteOffset: off, Signaled: true}
			_ = cqp.PostSend(wr)
		})
	})
	loop.Run()
	return d.result()
}

// ---------------------------------------------------------------------------
// RDMA Channel series: the full RUBIN channel with all Section IV
// optimizations (pre-registered pools, batched doorbells, selective
// signaling, zero-copy send, inline small messages).
// ---------------------------------------------------------------------------

// echoChannel is the full channel.
func echoChannel(cfg EchoConfig, params model.Params) (EchoResult, error) {
	return echoChannelCfg(cfg, params, nil)
}

// echoChannelCfg lets an ablation mutate the channel configuration and the
// model; nil is the full channel.
func echoChannelCfg(cfg EchoConfig, params model.Params, mutate func(*rubin.Config, *model.Params)) (EchoResult, error) {
	ccfg := rubin.DefaultConfig()
	ccfg.BufferSize = cfg.Payload
	if ccfg.BufferSize < 256 {
		ccfg.BufferSize = 256
	}
	ccfg.SendWRs, ccfg.RecvWRs = qpSlots, qpSlots
	if mutate != nil {
		mutate(&ccfg, &params)
	}

	loop, cn, sn := twoNodes(cfg.Seed, params)
	cd, sd := rdma.OpenDevice(cn), rdma.OpenDevice(sn)
	selC, selS := rubin.NewSelector(cd), rubin.NewSelector(sd)

	srv, err := rubin.Listen(selS, 9, ccfg)
	if err != nil {
		return EchoResult{}, err
	}
	var serverCh *rubin.Channel
	selS.Register(srv, rubin.OpConnect, nil)
	selS.Select(func(keys []*rubin.SelectionKey) {
		for _, k := range keys {
			switch ch := k.Channel().(type) {
			case *rubin.ServerChannel:
				if k.Ready()&rubin.OpConnect != 0 {
					for {
						c := ch.Accept()
						if c == nil {
							break
						}
						serverCh = c
						selS.Register(c, rubin.OpReceive, nil)
					}
				}
			case *rubin.Channel:
				if k.Ready()&rubin.OpReceive != 0 {
					for {
						msg, ok := ch.Receive()
						if !ok {
							break
						}
						_ = ch.Send(msg)
					}
				}
			}
		}
	})

	var clientCh *rubin.Channel
	var dialErr error
	loop.At(0, func() {
		_, dialErr = rubin.Connect(selC, sn, 9, ccfg, func(ch *rubin.Channel, err error) {
			if err != nil {
				dialErr = err
				return
			}
			clientCh = ch
		})
	})
	loop.Run()
	if dialErr != nil || clientCh == nil || serverCh == nil {
		return EchoResult{}, fmt.Errorf("bench: channel setup failed: %v", dialErr)
	}

	d := newEchoDriver(loop, cfg)
	payload := make([]byte, cfg.Payload)
	selC.Register(clientCh, rubin.OpReceive, nil)
	selC.Select(func(keys []*rubin.SelectionKey) {
		for _, k := range keys {
			ch, ok := k.Channel().(*rubin.Channel)
			if !ok || k.Ready()&rubin.OpReceive == 0 {
				continue
			}
			for {
				_, okMsg := ch.Receive()
				if !okMsg {
					break
				}
				d.completed()
			}
		}
	})

	loop.Post(func() {
		d.start(func() { _ = clientCh.Send(payload) })
	})
	loop.Run()
	return d.result()
}
