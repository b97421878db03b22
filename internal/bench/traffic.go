package bench

import (
	"fmt"

	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/obs"
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// TrafficConfig parameterizes one point of experiment E9: a workload
// (key skew, operation mix, arrival model) driven against either a PBFT
// cluster (Instances == 0) or a Reptor COP group (Instances == K) over
// one transport backend. Logical users are multiplexed over a bounded
// pool of client connections, every operation is recorded, and the
// history is checked for per-key register linearizability — a failed
// check fails the run, so every E9 point doubles as a correctness proof.
type TrafficConfig struct {
	Kind      transport.Kind
	Instances int // 0 = plain PBFT cluster; K >= 1 = Reptor COP group
	N, F      int
	Users     int // logical users
	Conns     int // client connections the users share
	Keys      int // keyspace size
	ValueSize int // written-value padding, bytes
	Ops       int // measured operations
	Warmup    int // unmeasured leading operations
	Mix       workload.Mix
	Zipf100   int // Zipf theta ×100 over the keyspace; 0 = uniform
	Arrival   workload.Arrival
	Seed      int64
	// BatchSize, when positive, overrides the protocol's default
	// agreement batch size (E11 sweeps it; zero keeps the default).
	BatchSize int
	// ReadTimeout, when positive, enables the PBFT read-only optimization:
	// single-key reads are multicast and accepted on 2F+1 matching
	// tentative replies, falling back to the ordered path after this
	// timeout. Zero leaves it off, as E9 does. It applies to a plain PBFT
	// cluster only (Instances == 0); a COP group orders every read.
	ReadTimeout sim.Time
	// Trace, when non-nil, records spans and samples into the shared
	// -trace tracer; nil still aggregates the latency breakdown.
	Trace *obs.Tracer
}

// RunTraffic drives one workload configuration to completion, verifies
// the run was healthy (no send faults, no stalled executor, no dangling
// invocations) and linearizable, and returns the latency percentiles
// and goodput.
func RunTraffic(cfg TrafficConfig, params model.Params) (TrafficResult, error) {
	sysLabel := "PBFT"
	if cfg.Instances > 0 {
		sysLabel = fmt.Sprintf("COP-%d", cfg.Instances)
	}
	spec := deploySpec{
		kind: cfg.Kind, pbft: pbftConfig(cfg.N, cfg.F, cfg.BatchSize), seed: cfg.Seed, conns: cfg.Conns,
		label: fmt.Sprintf("E9 %s %s N=%d users=%d conns=%d seed=%d",
			sysLabel, cfg.Kind, cfg.N, cfg.Users, cfg.Conns, cfg.Seed),
		trace: cfg.Trace, readTimeout: cfg.ReadTimeout,
	}
	d, err := newAgreement(spec, cfg.Instances, 0, 0, params)
	if err != nil {
		return TrafficResult{}, err
	}
	return d.runWorkload(trafficWorkload(cfg.Users, cfg.Conns, cfg.Keys, cfg.ValueSize,
		cfg.Ops, cfg.Warmup, cfg.Zipf100, cfg.Mix, cfg.Arrival, cfg.Seed))
}

// ---------------------------------------------------------------------------
// Registry entry: E9 (traffic study under a linearizability oracle).
// ---------------------------------------------------------------------------

// e9MidRead is the fixed read share of the rate, burst and skew sweeps.
const e9MidRead = 45

func init() {
	Register(Experiment{
		Name:   "E9",
		Title:  "traffic study: arrival rate, key skew and operation mix under a linearizability oracle",
		Figure: "beyond the paper: YCSB-style open/closed-loop workloads over the replicated system",
		knobs: []knob{
			{name: "rates", def: "3000,8000,16000", quick: "1500", min: 1, list: true}, // open-loop arrival rates, ops/s
			{name: "skews", def: "0,90,99", quick: "99", list: true},                   // Zipf theta x100; 0 = uniform
			{name: "read_pcts", def: "0,45,90", quick: "50", list: true},               // read shares of the mix sweep
			{name: "ks", def: "1,4", quick: "1", min: 1, list: true},                   // COP instance counts (PBFT always runs too)
			{name: "n", def: "4", min: 4},                                              // 3f+1
			{name: "users", def: "96", quick: "24", min: 1},
			{name: "conns", def: "4", quick: "2", min: 1},
			{name: "keys", def: "128", quick: "32", min: 10},
			{name: "ops", def: "300", quick: "60", min: 1},
			{name: "warmup", def: "30", quick: "10"},
			{name: "value_bytes", def: "128"},
			{name: "window", def: "1", min: 1}, // closed-loop outstanding per user
			{name: "scan_pct", def: "5"},
			{name: "delete_pct", def: "5"},
			{name: "burst_us", def: "2000", quick: "0"}, // on/off half-period of the burst sweep; 0 disables it
		},
		check: func(v values) error {
			if v.int("users") < v.int("conns") {
				return fmt.Errorf("need conns <= users, got %d/%d", v.int("conns"), v.int("users"))
			}
			if v.max("skews") >= 100 {
				return fmt.Errorf("skews are Zipf theta x100 in [0, 100), got %d", v.max("skews"))
			}
			// Every read share the sweeps use — the read_pcts axis and the
			// fixed e9MidRead of the rate/burst/skew sweeps — must leave
			// the mix a valid percentage split.
			if r := max(e9MidRead, v.max("read_pcts")); r+v.int("scan_pct")+v.int("delete_pct") > 100 {
				return fmt.Errorf("mix read=%d + scan=%d + delete=%d exceeds 100", r, v.int("scan_pct"), v.int("delete_pct"))
			}
			return nil
		},
		run: runE9,
	})
}

// e9Mix builds the operation mix for one read share. Scans run on COP
// too: they fan out as partition-filtered sub-scans, one per instance,
// whose partial results are deterministic because only instance k's
// order ever mutates partition-k keys (see kvstore.ScatterScan).
func e9Mix(readPct, scanPct, deletePct int) workload.Mix {
	m := workload.Mix{ReadPct: readPct, ScanPct: scanPct, DeletePct: deletePct}
	m.WritePct = 100 - m.ReadPct - m.ScanPct - m.DeletePct
	return m
}

// column is one per-point series a sweep reports: its metric, unit and
// the result field it plots.
type column struct {
	metric, unit string
	value        func(TrafficResult) float64
}

// statColumn plots one name of the run's folded stat table.
func statColumn(metric, unit, stat string) column {
	return column{metric, unit, func(r TrafficResult) float64 { return r.Stats[stat] }}
}

var (
	// colLeaderCPU is the highest CPU utilization across replica nodes — the
	// saturation signal that decides whether parallelizing the ordering
	// stage can pay off at all.
	colLeaderCPU = statColumn(metrics.MetricLeaderCPU, "utilization", "cpu_util")

	colMean           = column{metrics.MetricLatencyMean, "us", func(r TrafficResult) float64 { return r.Mean.Micros() }}
	colP99            = column{metrics.MetricLatencyP99, "us", func(r TrafficResult) float64 { return r.P99.Micros() }}
	colThroughput     = column{metrics.MetricThroughput, "req/s", func(r TrafficResult) float64 { return r.Goodput }}
	colSendFaults     = statColumn(metrics.MetricSendFaults, "count", "pbft.send_faults")
	colPeakQueue      = statColumn(metrics.MetricPeakQueueBytes, "bytes", "msgnet.peak_queue_bytes")
	colHeartbeatSlots = statColumn(metrics.MetricHeartbeatSlots, "count", "reptor.heartbeat_slots")
	colMergeWait      = column{metrics.MetricMergeWait, "us", func(r TrafficResult) float64 { return r.Breakdown.MergeWait.Micros() }}
	// breakdownColumns partition the measured end-to-end latency: per
	// point, queue + order + net equals the latency_mean series.
	breakdownColumns = []column{
		{metrics.MetricBreakdownQueue, "us", func(r TrafficResult) float64 { return r.Breakdown.Queue.Micros() }},
		{metrics.MetricBreakdownOrder, "us", func(r TrafficResult) float64 { return r.Breakdown.Order.Micros() }},
		{metrics.MetricBreakdownNet, "us", func(r TrafficResult) float64 { return r.Breakdown.Net.Micros() }},
	}
	// copColumns are the executor health counters and the commit-to-merge
	// wait, reported for COP systems only.
	copColumns = []column{
		colHeartbeatSlots,
		statColumn(metrics.MetricHeartbeatDelay, "us", "reptor.heartbeat_delay_us"),
		statColumn(metrics.MetricPeakBacklog, "count", "reptor.peak_backlog"),
		colMergeWait,
	}
	// fastColumns are reported for fast-path-on combos only.
	fastColumns = []column{
		statColumn(metrics.MetricFastReads, "count", "pbft.fast_reads"),
		statColumn(metrics.MetricFastFallbacks, "count", "pbft.fast_read_fallbacks"),
	}
	// shardColumns are E10's: committed goodput (the headline scaling
	// curve), the abort/2PC/retry counters and the 2PC phase waits.
	shardColumns = []column{
		{metrics.MetricCommittedGoodput, "op/s", func(r TrafficResult) float64 { return r.CommittedGoodput }},
		{metrics.MetricAbortedTxns, "count", func(r TrafficResult) float64 { return float64(r.Aborted) }},
		statColumn(metrics.MetricCrossShardTxns, "count", "shard.cross_shard_txns"),
		statColumn(metrics.MetricLockRetries, "count", "shard.lock_retries"),
		{metrics.MetricPrepareWait, "us", func(r TrafficResult) float64 { return r.Breakdown.PrepareWait.Micros() }},
		{metrics.MetricCommitWait, "us", func(r TrafficResult) float64 { return r.Breakdown.CommitWait.Micros() }},
		colPeakQueue,
	}
)

// columnSeries are the series of one sweep combo, one per column in order.
type columnSeries struct {
	cols   []column
	series []*metrics.ResultSeries
}

func addColumns(res *metrics.Result, name, transport, xLabel string, cols ...column) columnSeries {
	s := columnSeries{cols: cols}
	for _, c := range cols {
		s.series = append(s.series, res.AddSeries(name, c.metric, c.unit, transport, xLabel))
	}
	return s
}

func (s columnSeries) observe(x float64, r TrafficResult) {
	for i, c := range s.cols {
		s.series[i].Add(x, c.value(r))
	}
}

// trafficSeries bundles every series one traffic sweep combo reports:
// the percentile/goodput bundle, then the mean latency with its phase
// breakdown and the combo's columns.
type trafficSeries struct {
	ps   metrics.PercentileSeries
	cols columnSeries
}

func addTrafficSeries(res *metrics.Result, name, transport, xLabel string, cols ...column) trafficSeries {
	ps := res.AddPercentileSeries(name, transport, xLabel)
	all := append(append([]column{colMean}, breakdownColumns...), cols...)
	return trafficSeries{ps, addColumns(res, name, transport, xLabel, all...)}
}

func (s trafficSeries) observe(x float64, r TrafficResult) {
	s.ps.Observe(x, r.P50, r.P90, r.P99, r.P999, r.Goodput)
	s.cols.observe(x, r)
}

func runE9(rc RunContext, v values, res *metrics.Result) error {
	scan, del, window := v.int("scan_pct"), v.int("delete_pct"), v.int("window")
	// One sweep per x axis: open-loop arrival rate (Poisson — and, when
	// enabled, the same rates as on/off bursts) at fixed skew and mix,
	// then key skew and read share under closed-loop load.
	type sweep struct {
		prefix, xLabel string
		xs             []int
		set            func(cfg *TrafficConfig, x int)
	}
	closed := workload.Closed(window, 0)
	sweeps := []sweep{{"rate", "rate_ops_s", v.ints("rates"), func(cfg *TrafficConfig, rate int) {
		cfg.Mix, cfg.Zipf100, cfg.Arrival = e9Mix(e9MidRead, scan, del), 99, workload.Poisson(float64(rate))
	}}}
	if burst := sim.Time(v.int("burst_us")) * sim.Microsecond; burst > 0 {
		sweeps = append(sweeps, sweep{"burst", "rate_ops_s", v.ints("rates"), func(cfg *TrafficConfig, rate int) {
			cfg.Mix, cfg.Zipf100, cfg.Arrival = e9Mix(e9MidRead, scan, del), 99, workload.Bursts(float64(rate), burst, burst)
		}})
	}
	sweeps = append(sweeps,
		sweep{"skew", "zipf_theta_x100", v.ints("skews"), func(cfg *TrafficConfig, skew int) {
			cfg.Mix, cfg.Zipf100, cfg.Arrival = e9Mix(e9MidRead, scan, del), skew, closed
		}},
		sweep{"mix", "read_pct", v.ints("read_pcts"), func(cfg *TrafficConfig, readPct int) {
			cfg.Mix, cfg.Zipf100, cfg.Arrival = e9Mix(readPct, scan, del), 99, closed
		}})
	// Systems under test: plain PBFT (0 instances), then COP at each K.
	for _, sw := range sweeps {
		for _, kind := range e8Transports {
			for _, instances := range append([]int{0}, v.ints("ks")...) {
				sys, cols := "PBFT", []column{colPeakQueue}
				if instances > 0 {
					sys, cols = fmt.Sprintf("COP-%d", instances), append(cols, copColumns...)
				}
				ss := addTrafficSeries(res, fmt.Sprintf("%s %s %s", sw.prefix, sys, e8Label(kind)), string(kind), sw.xLabel, cols...)
				for _, x := range sw.xs {
					cfg := TrafficConfig{
						Kind: kind, Instances: instances,
						N: v.int("n"), F: (v.int("n") - 1) / 3,
						Users: v.int("users"), Conns: v.int("conns"), Keys: v.int("keys"),
						ValueSize: v.int("value_bytes"), Ops: v.int("ops"), Warmup: v.int("warmup"),
						Seed: rc.Seed, Trace: rc.Trace,
					}
					sw.set(&cfg, x)
					r, err := RunTraffic(cfg, rc.Model)
					if err != nil {
						return fmt.Errorf("%s=%d %s %s: %w", sw.xLabel, x, sys, kind, err)
					}
					ss.observe(float64(x), r)
				}
			}
		}
	}
	return nil
}
