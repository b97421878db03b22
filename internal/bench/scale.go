package bench

import (
	"fmt"

	"rubin/internal/metrics"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

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
	base := ClosedLoopConfig{
		Requests: v.int("requests"), Warmup: v.int("warmup"), Window: v.int("window"),
		Batch: v.int("batch"), Clients: v.int("clients"), Seed: rc.Seed, Trace: rc.Trace,
	}
	// Axis 1: PBFT agreement vs cluster size (f scales with N).
	pbftCols := append([]column{colMean, colP99, colThroughput}, breakdownColumns...)
	for _, kind := range e8Transports {
		for _, kb := range v.ints("payloads_kb") {
			ss := addColumns(res, fmt.Sprintf("PBFT %s %dKB", e8Label(kind), kb), string(kind), "replicas", pbftCols...)
			for _, n := range v.ints("ns") {
				cfg := base
				cfg.Kind, cfg.Payload, cfg.N, cfg.F = kind, kb<<10, n, (n-1)/3
				r, err := RunClosedLoop(cfg, rc.Model)
				if err != nil {
					return fmt.Errorf("PBFT N=%d %s %dKB: %w", n, kind, kb, err)
				}
				ss.observe(float64(n), r)
			}
		}
	}
	// Axis 2: Reptor COP ordering vs instance count on a fixed group. The
	// per-K heartbeat and CPU series document *why* the throughput curve
	// bends: K parallel leaders split the ordering CPU, while the
	// adaptive/batched heartbeat keeps the merge's hole-filling cost from
	// growing with K.
	copCols := append(append([]column{colMean, colP99, colThroughput, colHeartbeatSlots, colLeaderCPU}, breakdownColumns...), colMergeWait)
	base.N, base.F = v.int("cop_n"), (v.int("cop_n")-1)/3
	base.HeartbeatDelay = sim.Time(v.int("hb_us")) * sim.Microsecond
	base.HeartbeatMax = sim.Time(v.int("hb_max_us")) * sim.Microsecond
	for _, kind := range e8Transports {
		for _, kb := range v.ints("cop_payloads_kb") {
			ss := addColumns(res, fmt.Sprintf("COP %s %dKB", e8Label(kind), kb), string(kind), "instances", copCols...)
			for _, ki := range v.ints("ks") {
				cfg := base
				cfg.Kind, cfg.Payload, cfg.Instances = kind, kb<<10, ki
				r, err := RunClosedLoop(cfg, rc.Model)
				if err != nil {
					return fmt.Errorf("COP K=%d %s %dKB: %w", ki, kind, kb, err)
				}
				ss.observe(float64(ki), r)
			}
		}
	}
	return nil
}
