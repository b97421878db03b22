package bench

import (
	"fmt"

	"rubin/internal/metrics"
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
	clients := v.int("clients")
	// point measures the closed loop on a fresh system of n replicas:
	// plain PBFT at instances 0, else a COP group of that many instances.
	point := func(kind transport.Kind, n, instances, kb int) (TrafficResult, error) {
		sys := fmt.Sprintf("PBFT %s", kind)
		if instances > 0 {
			sys = fmt.Sprintf("COP %s K=%d", kind, instances)
		}
		d, err := newAgreement(deploySpec{
			kind: kind, pbft: pbftConfig(n, (n-1)/3, v.int("batch")), seed: rc.Seed, conns: clients, trace: rc.Trace,
			label: fmt.Sprintf("E8 %s N=%d clients=%d payload=%dB seed=%d", sys, n, clients, kb<<10, rc.Seed),
		}, instances, rc.Model)
		if err != nil {
			return TrafficResult{}, err
		}
		return d.closedLoop(v.int("window"), kb<<10, v.int("requests"), v.int("warmup"))
	}
	// Axis 1: PBFT agreement vs cluster size (f scales with N).
	pbftCols := append([]column{colMean, colP99, colThroughput}, breakdownColumns...)
	for _, kind := range e8Transports {
		for _, kb := range v.ints("payloads_kb") {
			ss := addColumns(res, fmt.Sprintf("PBFT %s %dKB", e8Label(kind), kb), string(kind), "replicas", pbftCols...)
			for _, n := range v.ints("ns") {
				r, err := point(kind, n, 0, kb)
				if err != nil {
					return fmt.Errorf("PBFT N=%d %s %dKB: %w", n, kind, kb, err)
				}
				ss.observe(float64(n), r)
			}
		}
	}
	// Axis 2: Reptor COP ordering vs instance count on a fixed group. The
	// per-K CPU series documents *why* the throughput curve bends: K
	// parallel leaders split the ordering CPU.
	copCols := append([]column{colMean, colP99, colThroughput, colLeaderCPU}, breakdownColumns...)
	for _, kind := range e8Transports {
		for _, kb := range v.ints("cop_payloads_kb") {
			ss := addColumns(res, fmt.Sprintf("COP %s %dKB", e8Label(kind), kb), string(kind), "instances", copCols...)
			for _, k := range v.ints("ks") {
				r, err := point(kind, v.int("cop_n"), k, kb)
				if err != nil {
					return fmt.Errorf("COP K=%d %s %dKB: %w", k, kind, kb, err)
				}
				ss.observe(float64(k), r)
			}
		}
	}
	return nil
}
