package main

import (
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// spec is one benchmark workload. Shapes are fixed here; only the op
// counts may be rescaled (see scaled), never per workload at run time.
// Every replicated workload runs N = 4, F = 1, pbft.DefaultConfig and
// model.Default() with four client connections.
type spec struct {
	name string
	why  string // the one-line reason, repeated in BENCHMARK.json
	kind transport.Kind
	ops  int // measured operations per rep
	warm int // unmeasured leading operations per rep

	// Echo workloads (paper Fig. 4): one client, one server, closed loop.
	echo         bool
	window       int // outstanding echoes
	batch        int // messages per syscall / doorbell
	sizeLo, size int // payload bytes drawn uniformly from [sizeLo, size]

	// Replicated workloads.
	users     int
	keys      int
	zipf      float64 // 0 = uniform
	valueSize int
	mix       workload.Mix
	arrival   workload.Arrival
	fastReads bool // EnableReadFastPath with a 2 ms fallback timeout
	crash     bool // Crash(0) at +crashAt, Restart(0) at +restartAt, a third and two thirds through the arrivals
}

const (
	conns       = 4
	readTimeout = 2 * sim.Millisecond
	crashAt     = 150 * sim.Millisecond
	restartAt   = 300 * sim.Millisecond
	openRate    = 30000 // Poisson arrivals per second of the open-loop workloads
)

var (
	smallMix = workload.Mix{ReadPct: 45, WritePct: 45, ScanPct: 5, DeletePct: 5}
	readsMix = workload.Mix{ReadPct: 95, WritePct: 5}
	largeMix = workload.Mix{ReadPct: 10, WritePct: 90}
)

// specs lists the workloads in BENCHMARK.json order.
var specs = []spec{
	{
		name: "echo-rubin", kind: transport.KindRDMA, echo: true,
		why:    "paper Fig. 4 echo over rdma-rubin: only sim, fabric, rdma, rubin and transport run, so a transport-stack change shows undiluted",
		window: 30, batch: 10, sizeLo: 512, size: 1536, ops: 80000, warm: 8000,
	},
	{
		name: "echo-nio", kind: transport.KindTCP, echo: true,
		why:    "the same echo over tcp-nio, the paper's baseline: tcpsim and nio do the work, an rdma-only change must not move it",
		window: 30, batch: 10, sizeLo: 512, size: 1536, ops: 80000, warm: 8000,
	},
	{
		name: "small-rubin", kind: transport.KindRDMA,
		why:   "closed loop, 96 users, 128 B values, mixed ops, Zipf 0.9: per-message cost dominates, where event-heap and pbft bookkeeping changes show",
		users: 96, keys: 1024, zipf: 0.90, valueSize: 128, mix: smallMix,
		arrival: workload.Closed(1, 0), ops: 8000, warm: 800,
	},
	{
		name: "small-nio", kind: transport.KindTCP,
		why:   "the small-rubin load over tcp-nio: same protocol work on the other stack, the bypass workload for every rdma or rubin change",
		users: 96, keys: 1024, zipf: 0.90, valueSize: 128, mix: smallMix,
		arrival: workload.Closed(1, 0), ops: 8000, warm: 800,
	},
	{
		name: "large-rubin", kind: transport.KindRDMA,
		why:   "closed loop, 32 users, 32 KiB values, 90 % writes over 64 keys: per-byte cost dominates (copies, SHA-256), per-message wins do nothing here",
		users: 32, keys: 64, valueSize: 32 << 10, mix: largeMix,
		arrival: workload.Closed(1, 0), ops: 700, warm: 70,
	},
	{
		name: "reads-rubin", kind: transport.KindRDMA,
		why:   "95 % reads on the tentative-read fast path beside ordered writes: a change that hurts the read path or raises fallbacks shows only here",
		users: 96, keys: 1024, zipf: 0.90, valueSize: 128, mix: readsMix,
		arrival: workload.Closed(1, 0), fastReads: true, ops: 16000, warm: 1600,
	},
	{
		name: "open-rubin", kind: transport.KindRDMA,
		why:   "open loop, Poisson 30000 ops/s below the knee, latency from intended arrival: service-time changes are amplified in p99, not absorbed",
		users: 256, keys: 1024, valueSize: 128, mix: smallMix,
		arrival: workload.Poisson(openRate), ops: 12000, warm: 1200,
	},
	{
		name: "crash-rubin", kind: transport.KindRDMA,
		why:   "open-rubin plus a leader crash at +150 ms and restart at +300 ms: the only workload running view change, checkpoint adoption and state transfer",
		users: 256, keys: 1024, valueSize: 128, mix: smallMix,
		arrival: workload.Poisson(openRate), crash: true, ops: 12000, warm: 1200,
	},
}

func findSpec(name string) (spec, bool) {
	for _, sp := range specs {
		if sp.name == name {
			return sp, true
		}
	}
	return spec{}, false
}

// scaled multiplies the op counts, keeping the shape. The fault script
// does not move with them: run refuses to scale the crash workload.
func (sp spec) scaled(f float64) spec {
	sp.ops = max(int(float64(sp.ops)*f), 200)
	sp.warm = max(int(float64(sp.warm)*f), 20)
	return sp
}
