package bench

import (
	"fmt"

	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/obs"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// BFTConfig parameterizes the fully-replicated-system evaluation (the
// paper's stated future work, experiment E5, and the N-axis of the E8
// scaling study): a 3F+1 PBFT cluster ordering closed-loop client requests
// over either transport stack. Cluster size (N, F) and offered load
// (Clients, Window) are parameters, not constants.
type BFTConfig struct {
	Kind     transport.Kind
	Payload  int // request operation size
	Requests int // measured requests per client
	Warmup   int // unmeasured requests per client
	Window   int // outstanding requests per client
	Batch    int // PBFT batch size
	N, F     int
	Clients  int // closed-loop clients (0 means 1)
	Seed     int64
	// Trace, when non-nil, records spans and samples into the shared
	// -trace tracer; nil still aggregates the latency breakdown.
	Trace *obs.Tracer
}

// DefaultBFTConfig returns the 4-replica, f=1, single-client setup.
func DefaultBFTConfig(kind transport.Kind, payload int) BFTConfig {
	return BFTConfig{
		Kind: kind, Payload: payload,
		Requests: 150, Warmup: 20, Window: 16, Batch: 8,
		N: 4, F: 1, Clients: 1, Seed: 1,
	}
}

// Label describes the replica-group shape of this configuration — derived
// from the actual values, so a 7-replica run never reads "4 replicas".
func (c BFTConfig) Label() string {
	label := fmt.Sprintf("%d replicas, f=%d", c.N, c.F)
	if c.Clients > 1 {
		label += fmt.Sprintf(", %d clients", c.Clients)
	}
	return label
}

// BFTResult is one measurement point of the replicated system.
type BFTResult struct {
	Kind       transport.Kind
	Payload    int
	MeanLat    sim.Time // client-observed request latency
	P99Lat     sim.Time
	Throughput float64 // requests per second across all clients
	SendFaults uint64  // delivery failures surfaced by msgnet across replicas
	// Breakdown attributes the measured latency to protocol phases
	// (Breakdown.Total equals MeanLat up to integer-mean rounding).
	Breakdown obs.Summary
	// PeakQueueBytes is the deepest msgnet send queue any replica saw.
	PeakQueueBytes int
}

// RunBFT measures agreement latency and throughput of the full replicated
// system for one configuration. Each client runs its own closed loop of
// Window outstanding requests; latency samples start after the per-client
// warmup and throughput aggregates all clients.
func RunBFT(cfg BFTConfig, params model.Params) (BFTResult, error) {
	clients := cfg.Clients
	if clients < 1 {
		clients = 1
	}
	d, err := newPBFT(deploySpec{
		kind: cfg.Kind, pbft: pbftConfig(cfg.N, cfg.F, cfg.Batch), seed: cfg.Seed, conns: clients,
		label: fmt.Sprintf("PBFT %s N=%d clients=%d payload=%dB seed=%d",
			cfg.Kind, cfg.N, clients, cfg.Payload, cfg.Seed),
		trace: cfg.Trace,
	}, params)
	if err != nil {
		return BFTResult{}, err
	}
	res, err := d.runClosedLoop("bench", cfg.Payload, cfg.Requests, cfg.Warmup, cfg.Window)
	if err != nil {
		return BFTResult{}, err
	}
	return BFTResult{
		Kind:           cfg.Kind,
		Payload:        cfg.Payload,
		MeanLat:        res.rec.Mean(),
		P99Lat:         res.rec.Percentile(99),
		Throughput:     res.throughput(),
		SendFaults:     d.sendFaults(),
		Breakdown:      d.tr.Summary(),
		PeakQueueBytes: d.peakQueueBytes(),
	}, nil
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
	base := BFTConfig{
		Requests: v.int("requests"), Warmup: v.int("warmup"), Window: v.int("window"),
		Batch: v.int("batch"), N: v.int("n"), F: v.int("f"), Clients: v.int("clients"),
		Seed: rc.Seed, Trace: rc.Trace,
	}
	res.SetConfig("cluster", base.Label())
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		name := e5SeriesNames[kind]
		mean := res.AddSeries(name, metrics.MetricLatencyMean, "us", string(kind), "payload_kb")
		p99 := res.AddSeries(name, metrics.MetricLatencyP99, "us", string(kind), "payload_kb")
		tput := res.AddSeries(name, metrics.MetricThroughput, "req/s", string(kind), "payload_kb")
		faults := res.AddSeries(name, metrics.MetricSendFaults, "count", string(kind), "payload_kb")
		for _, kb := range v.ints("payloads_kb") {
			c := base
			c.Kind = kind
			c.Payload = kb << 10
			r, err := RunBFT(c, rc.Model)
			if err != nil {
				return err
			}
			mean.Add(float64(kb), r.MeanLat.Micros())
			p99.Add(float64(kb), r.P99Lat.Micros())
			tput.Add(float64(kb), r.Throughput)
			faults.Add(float64(kb), float64(r.SendFaults))
		}
	}
	return nil
}
