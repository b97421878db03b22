package bench

import (
	"fmt"

	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/obs"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// ClosedLoopConfig parameterizes the fixed-key closed-loop measurement of
// the replicated system: the paper's stated future work (experiment E5)
// and both axes of the E8 scaling study. Closed-loop clients drive an
// N-replica PBFT cluster (Instances == 0) or a Reptor COP group of K
// parallel instances (Instances == K) over either transport stack.
type ClosedLoopConfig struct {
	Kind      transport.Kind
	Instances int // 0 = plain PBFT cluster; K >= 1 = Reptor COP group
	Payload   int // request operation size
	Requests  int // measured requests per client
	Warmup    int // unmeasured requests per client
	Window    int // outstanding requests per client
	Batch     int // (per-instance) PBFT batch size
	N, F      int
	Clients   int // closed-loop clients (0 means 1)
	Seed      int64
	// HeartbeatDelay/HeartbeatMax tune the COP executor's adaptive
	// hole-filling heartbeat (zero keeps the reptor defaults).
	HeartbeatDelay sim.Time
	HeartbeatMax   sim.Time
	// Trace, when non-nil, records spans and samples into the shared
	// -trace tracer; nil still aggregates the latency breakdown.
	Trace *obs.Tracer
}

// RunClosedLoop measures agreement latency and throughput of the
// replicated system for one configuration. Each client runs its own
// closed loop of Window outstanding puts to keys of its own; latency
// samples start after the per-client warmup and throughput spans the
// first measured send to the last measured reply across all clients. COP
// clients route operations to instances by hash (each instance orders a
// disjoint partition), so adding instances scales the ordering pipeline —
// the Middleware '15 parallelization the paper targets RUBIN at.
func RunClosedLoop(cfg ClosedLoopConfig, params model.Params) (TrafficResult, error) {
	clients := max(cfg.Clients, 1)
	sys, keyPrefix := fmt.Sprintf("PBFT %s", cfg.Kind), "bench"
	if cfg.Instances > 0 {
		sys, keyPrefix = fmt.Sprintf("COP %s K=%d", cfg.Kind, cfg.Instances), "cop"
	}
	d, err := newAgreement(deploySpec{
		kind: cfg.Kind, pbft: pbftConfig(cfg.N, cfg.F, cfg.Batch), seed: cfg.Seed, conns: clients, trace: cfg.Trace,
		label: fmt.Sprintf("%s N=%d clients=%d payload=%dB seed=%d", sys, cfg.N, clients, cfg.Payload, cfg.Seed),
	}, cfg.Instances, cfg.HeartbeatDelay, cfg.HeartbeatMax, params)
	if err != nil {
		return TrafficResult{}, err
	}
	rec := metrics.NewRecorder()
	perConn := cfg.Requests + cfg.Warmup
	done, finished := make([]int, clients), 0
	var startAt, endAt sim.Time // first measured send, last measured reply
	started := false
	d.putLoop(cfg.Window, cfg.Payload, func(conn, sent int) (string, bool) {
		if sent >= perConn {
			return "", false
		}
		if sent == cfg.Warmup && !started {
			startAt, started = d.loop.Now(), true
		}
		return fmt.Sprintf("%s-%d-%06d", keyPrefix, conn, sent), true
	}, func(conn int, latency sim.Time) bool {
		done[conn]++
		finished++
		if done[conn] <= cfg.Warmup {
			return false
		}
		rec.Record(latency)
		endAt = d.loop.Now()
		return true
	})
	d.loop.Run()
	if want := perConn * clients; finished != want {
		return TrafficResult{}, fmt.Errorf("bench: completed %d of %d requests", finished, want)
	}
	if err := d.check(); err != nil {
		return TrafficResult{}, err
	}
	r := d.result(rec)
	r.Goodput, r.Completed = metrics.Throughput(rec.Count(), endAt-startAt), rec.Count()
	return r, nil
}

// ---------------------------------------------------------------------------
// Registry entry: E5 (replicated-system agreement over both transports).
// ---------------------------------------------------------------------------

func init() {
	Register(Experiment{
		Name:   "E5",
		Title:  "BFT agreement latency and throughput (PBFT over RUBIN vs NIO)",
		Figure: "paper Section VI (stated future work)",
		knobs: []knob{
			{name: "payloads_kb", def: "1,4,16", quick: "1", min: 1, list: true},
			{name: "n", def: "4", min: 1},
			{name: "f", derive: func(v values) int { return (v.int("n") - 1) / 3 }},
			{name: "requests", def: "150", quick: "60", min: 1},
			{name: "warmup", def: "20", quick: "10"},
			{name: "window", def: "16", min: 1},
			{name: "batch", def: "8", min: 1},
			{name: "clients", def: "1", min: 1},
		},
		run: runE5,
	})
}

// e5SeriesNames label the replicated system on each backend.
var e5SeriesNames = map[transport.Kind]string{
	transport.KindRDMA: "Reptor+RUBIN",
	transport.KindTCP:  "Reptor+NIO",
}

func runE5(rc RunContext, v values, res *metrics.Result) error {
	cluster := fmt.Sprintf("%d replicas, f=%d", v.int("n"), v.int("f"))
	if v.int("clients") > 1 {
		cluster += fmt.Sprintf(", %d clients", v.int("clients"))
	}
	res.SetConfig("cluster", cluster)
	for _, kind := range e8Transports {
		ss := addColumns(res, e5SeriesNames[kind], string(kind), "payload_kb", colMean, colP99, colThroughput, colSendFaults)
		for _, kb := range v.ints("payloads_kb") {
			r, err := RunClosedLoop(ClosedLoopConfig{
				Kind: kind, Payload: kb << 10,
				Requests: v.int("requests"), Warmup: v.int("warmup"), Window: v.int("window"),
				Batch: v.int("batch"), N: v.int("n"), F: v.int("f"), Clients: v.int("clients"),
				Seed: rc.Seed, Trace: rc.Trace,
			}, rc.Model)
			if err != nil {
				return err
			}
			ss.observe(float64(kb), r)
		}
	}
	return nil
}
