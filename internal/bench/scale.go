package bench

import (
	"fmt"

	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/obs"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// COPConfig parameterizes one point of the Reptor COP scaling axis of
// experiment E8: K parallel PBFT instances on an N-replica group, driven
// by closed-loop clients over either transport stack.
type COPConfig struct {
	Kind      transport.Kind
	Instances int // K, the parallel consensus pipelines
	Payload   int // request operation size
	Requests  int // measured requests per client
	Warmup    int // unmeasured requests per client
	Window    int // outstanding requests per client
	Batch     int // per-instance PBFT batch size
	N, F      int
	Clients   int // closed-loop clients (0 means 1)
	Seed      int64
	// HeartbeatDelay/HeartbeatMax tune the executor's adaptive
	// hole-filling heartbeat (zero keeps the reptor defaults).
	HeartbeatDelay sim.Time
	HeartbeatMax   sim.Time
	// Trace, when non-nil, records spans and samples into the shared
	// -trace tracer; nil still aggregates the latency breakdown.
	Trace *obs.Tracer
}

// DefaultCOPConfig returns the 4-replica, 4-instance, single-client setup.
func DefaultCOPConfig(kind transport.Kind, payload int) COPConfig {
	return COPConfig{
		Kind: kind, Payload: payload, Instances: 4,
		Requests: 100, Warmup: 10, Window: 8, Batch: 8,
		N: 4, F: 1, Clients: 1, Seed: 1,
	}
}

// Label describes the group shape of this configuration.
func (c COPConfig) Label() string {
	return fmt.Sprintf("%d replicas, f=%d, K=%d, %d clients", c.N, c.F, c.Instances, c.Clients)
}

// COPResult is one measurement point of the parallelized system.
type COPResult struct {
	Kind        transport.Kind
	Instances   int
	Payload     int
	MeanLat     sim.Time
	P99Lat      sim.Time
	Throughput  float64 // requests per second across all clients
	MergedSlots uint64  // global slots merged by node 0's executor
	// Heartbeat cost of the merge, summed across every node's executor
	// (a fill is proposed by whichever node leads the lagging instance,
	// so per-node counters are a K-dependent sample): fills fired and
	// empty slots they requested (batched fills request several slots
	// per round).
	HeartbeatRounds uint64
	HeartbeatSlots  uint64
	// Backlog is committed-but-unmerged batches left at the end across
	// all nodes — non-zero means some executor stalled behind the
	// agreement.
	Backlog int
	// LeaderCPU is the highest CPU utilization across replica nodes —
	// the saturation signal that decides whether parallelizing the
	// ordering stage can pay off at all.
	LeaderCPU float64
	// Breakdown attributes the measured latency to protocol phases;
	// Breakdown.MergeWait is the executor's commit-to-merge barrier time
	// (off the reply path, so it is not part of the partition).
	Breakdown obs.Summary
	// PeakBacklog is the most committed-but-unmerged batches any node's
	// executor held at once — the transient counterpart of Backlog.
	PeakBacklog int
	// PeakQueueBytes is the deepest msgnet send queue any replica saw.
	PeakQueueBytes int
}

// RunCOP measures ordering latency and throughput of a Reptor COP group
// for one configuration. Clients route operations to instances by hash
// (each instance orders a disjoint partition), so adding instances scales
// the ordering pipeline — the Middleware '15 parallelization the paper
// targets RUBIN at.
func RunCOP(cfg COPConfig, params model.Params) (COPResult, error) {
	clients := cfg.Clients
	if clients < 1 {
		clients = 1
	}
	d, err := newCOP(deploySpec{
		kind: cfg.Kind, pbft: pbftConfig(cfg.N, cfg.F, cfg.Batch), seed: cfg.Seed, conns: clients,
		label: fmt.Sprintf("COP %s K=%d N=%d clients=%d payload=%dB seed=%d",
			cfg.Kind, cfg.Instances, cfg.N, clients, cfg.Payload, cfg.Seed),
		trace: cfg.Trace,
	}, cfg.Instances, cfg.HeartbeatDelay, cfg.HeartbeatMax, params)
	if err != nil {
		return COPResult{}, err
	}
	res, err := d.runClosedLoop("cop", cfg.Payload, cfg.Requests, cfg.Warmup, cfg.Window)
	if err != nil {
		return COPResult{}, err
	}
	r := COPResult{
		Kind:           cfg.Kind,
		Instances:      cfg.Instances,
		Payload:        cfg.Payload,
		MeanLat:        res.rec.Mean(),
		P99Lat:         res.rec.Percentile(99),
		Throughput:     res.throughput(),
		MergedSlots:    d.execs[0].MergedSlots(),
		Breakdown:      d.tr.Summary(),
		PeakQueueBytes: d.peakQueueBytes(),
	}
	for _, mesh := range d.meshes {
		if u := mesh.Node().CPU.Utilization(); u > r.LeaderCPU {
			r.LeaderCPU = u
		}
	}
	for _, ex := range d.execs {
		r.HeartbeatRounds += ex.HeartbeatRounds()
		r.HeartbeatSlots += ex.HeartbeatSlots()
		r.Backlog += ex.Backlog()
		if pb := ex.PeakBacklog(); pb > r.PeakBacklog {
			r.PeakBacklog = pb
		}
	}
	return r, nil
}

// ---------------------------------------------------------------------------
// Registry entry: E8 (scaling study — cluster size and COP parallelism).
// ---------------------------------------------------------------------------

func init() {
	Register(Experiment{
		Name:   "E8",
		Title:  "scaling study: PBFT cluster size (N) and Reptor COP parallelism (K)",
		Figure: "beyond the paper: COP (Behl et al., Middleware '15) scaling axis",
		knobs: []knob{
			{name: "ns", def: "4,7,10", quick: "4,7", min: 4, list: true},  // PBFT cluster sizes (3f+1); f = (n-1)/3 each
			{name: "ks", def: "1,2,4,8", quick: "1,2", min: 1, list: true}, // COP instance counts on the cop_n-replica group
			{name: "payloads_kb", def: "1,16", quick: "1", min: 1, list: true},
			// The COP axis sweeps further: the largest payload shows the crossover.
			{name: "cop_payloads_kb", def: "1,16,64", quick: "1", min: 1, list: true},
			{name: "cop_n", def: "4", min: 4},
			{name: "requests", def: "80", quick: "30", min: 1},
			{name: "warmup", def: "10", quick: "5"},
			{name: "window", def: "16", min: 1},
			{name: "clients", def: "4", quick: "2", min: 1},
			{name: "batch", def: "8", min: 1},
			{name: "hb_us", def: "100", min: 1},      // adaptive heartbeat floor
			{name: "hb_max_us", def: "4000", min: 1}, // adaptive heartbeat backoff ceiling
		},
		check: func(v values) error {
			if v.int("hb_max_us") < v.int("hb_us") {
				return fmt.Errorf("need hb_us <= hb_max_us, got %d/%d", v.int("hb_us"), v.int("hb_max_us"))
			}
			return nil
		},
		run: runE8,
	})
}

// e8Transports are the two backends every E8 sweep runs on.
var e8Transports = []transport.Kind{transport.KindRDMA, transport.KindTCP}

// e8Label shortens the backend name for series labels.
func e8Label(kind transport.Kind) string {
	if kind == transport.KindRDMA {
		return "RUBIN"
	}
	return "NIO"
}

func runE8(rc RunContext, v values, res *metrics.Result) error {
	// Axis 1: PBFT agreement vs cluster size (f scales with N).
	for _, kind := range e8Transports {
		for _, kb := range v.ints("payloads_kb") {
			name := fmt.Sprintf("PBFT %s %dKB", e8Label(kind), kb)
			mean := res.AddSeries(name, metrics.MetricLatencyMean, "us", string(kind), "replicas")
			p99 := res.AddSeries(name, metrics.MetricLatencyP99, "us", string(kind), "replicas")
			tput := res.AddSeries(name, metrics.MetricThroughput, "req/s", string(kind), "replicas")
			bd := addBreakdownSeries(res, name, string(kind), "replicas")
			for _, n := range v.ints("ns") {
				cfg := BFTConfig{
					Kind: kind, Payload: kb << 10,
					Requests: v.int("requests"), Warmup: v.int("warmup"), Window: v.int("window"),
					Batch: v.int("batch"), N: n, F: (n - 1) / 3, Clients: v.int("clients"),
					Seed: rc.Seed, Trace: rc.Trace,
				}
				r, err := RunBFT(cfg, rc.Model)
				if err != nil {
					return fmt.Errorf("PBFT N=%d %s %dKB: %w", n, kind, kb, err)
				}
				mean.Add(float64(n), r.MeanLat.Micros())
				p99.Add(float64(n), r.P99Lat.Micros())
				tput.Add(float64(n), r.Throughput)
				bd.observe(float64(n), r.Breakdown)
			}
		}
	}
	// Axis 2: Reptor COP ordering vs instance count on a fixed group. The
	// per-K heartbeat and CPU series document *why* the throughput curve
	// bends: K parallel leaders split the ordering CPU, while the
	// adaptive/batched heartbeat keeps the merge's hole-filling cost from
	// growing with K.
	for _, kind := range e8Transports {
		for _, kb := range v.ints("cop_payloads_kb") {
			name := fmt.Sprintf("COP %s %dKB", e8Label(kind), kb)
			mean := res.AddSeries(name, metrics.MetricLatencyMean, "us", string(kind), "instances")
			p99 := res.AddSeries(name, metrics.MetricLatencyP99, "us", string(kind), "instances")
			tput := res.AddSeries(name, metrics.MetricThroughput, "req/s", string(kind), "instances")
			hb := res.AddSeries(name, metrics.MetricHeartbeatSlots, "count", string(kind), "instances")
			cpu := res.AddSeries(name, metrics.MetricLeaderCPU, "utilization", string(kind), "instances")
			bd := addBreakdownSeries(res, name, string(kind), "instances")
			mw := res.AddSeries(name, metrics.MetricMergeWait, "us", string(kind), "instances")
			for _, ki := range v.ints("ks") {
				cfg := COPConfig{
					Kind: kind, Instances: ki, Payload: kb << 10,
					Requests: v.int("requests"), Warmup: v.int("warmup"), Window: v.int("window"),
					Batch: v.int("batch"), N: v.int("cop_n"), F: (v.int("cop_n") - 1) / 3, Clients: v.int("clients"),
					Seed:           rc.Seed,
					HeartbeatDelay: sim.Time(v.int("hb_us")) * sim.Microsecond,
					HeartbeatMax:   sim.Time(v.int("hb_max_us")) * sim.Microsecond,
					Trace:          rc.Trace,
				}
				r, err := RunCOP(cfg, rc.Model)
				if err != nil {
					return fmt.Errorf("COP K=%d %s %dKB: %w", ki, kind, kb, err)
				}
				if r.Backlog != 0 {
					return fmt.Errorf("COP K=%d %s %dKB: executor stalled with %d committed-but-unmerged batches",
						ki, kind, kb, r.Backlog)
				}
				mean.Add(float64(ki), r.MeanLat.Micros())
				p99.Add(float64(ki), r.P99Lat.Micros())
				tput.Add(float64(ki), r.Throughput)
				hb.Add(float64(ki), float64(r.HeartbeatSlots))
				cpu.Add(float64(ki), r.LeaderCPU)
				bd.observe(float64(ki), r.Breakdown)
				mw.Add(float64(ki), r.Breakdown.MergeWait.Micros())
			}
		}
	}
	return nil
}
