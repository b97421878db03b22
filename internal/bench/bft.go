package bench

import (
	"fmt"

	"rubin/internal/metrics"
	"rubin/internal/shard"
	"rubin/internal/transport"
)

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
	n, clients := v.int("n"), v.int("clients")
	cluster := fmt.Sprintf("%d replicas, f=%d", n, v.int("f"))
	if clients > 1 {
		cluster += fmt.Sprintf(", %d clients", clients)
	}
	res.SetConfig("cluster", cluster)
	for _, kind := range e8Transports {
		ss := addColumns(res, e5SeriesNames[kind], string(kind), "payload_kb", colMean, colP99, colThroughput, colSendFaults)
		for _, kb := range v.ints("payloads_kb") {
			d, err := deploy(deploySpec{
				kind: kind, seed: rc.Seed, conns: clients, trace: rc.Trace,
				label: fmt.Sprintf("E5 PBFT %s N=%d clients=%d payload=%dB seed=%d", kind, n, clients, kb<<10, rc.Seed),
			}, shard.Config{Shards: 1, PBFT: pbftConfig(n, v.int("f"), v.int("batch"))}, oneHostSet, rc.Model)
			if err != nil {
				return err
			}
			r, err := d.closedLoop("bench", v.int("window"), kb<<10, v.int("requests"), v.int("warmup"))
			if err != nil {
				return err
			}
			ss.observe(float64(kb), r)
		}
	}
	return nil
}
