package bench

import (
	"fmt"

	"rubin/internal/metrics"
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

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

// keyChooser picks among keys with Zipf theta zipf100/100, uniformly at 0.
func keyChooser(keys, zipf100 int) workload.KeyChooser {
	if zipf100 == 0 {
		return workload.NewUniform(keys)
	}
	return workload.NewZipf(keys, float64(zipf100)/100)
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

	colMean       = column{metrics.MetricLatencyMean, "us", func(r TrafficResult) float64 { return r.Mean.Micros() }}
	colP99        = column{metrics.MetricLatencyP99, "us", func(r TrafficResult) float64 { return r.P99.Micros() }}
	colThroughput = column{metrics.MetricThroughput, "req/s", func(r TrafficResult) float64 { return r.Goodput }}
	colSendFaults = statColumn(metrics.MetricSendFaults, "count", "pbft.send_faults")
	colPeakQueue  = statColumn(metrics.MetricPeakQueueBytes, "bytes", "msgnet.peak_queue_bytes")
	// breakdownColumns partition the measured end-to-end latency: per
	// point, queue + order + net equals the latency_mean series.
	breakdownColumns = []column{
		{metrics.MetricBreakdownQueue, "us", func(r TrafficResult) float64 { return r.Breakdown.Queue.Micros() }},
		{metrics.MetricBreakdownOrder, "us", func(r TrafficResult) float64 { return r.Breakdown.Order.Micros() }},
		{metrics.MetricBreakdownNet, "us", func(r TrafficResult) float64 { return r.Breakdown.Net.Micros() }},
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

// runE9 drives each point's workload against a plain PBFT cluster or a COP
// group of K instances over one backend. Every operation is recorded and
// runWorkload fails a history that is not linearizable per key, so every
// E9 point doubles as a correctness proof.
func runE9(rc RunContext, v values, res *metrics.Result) error {
	n, users, conns, keys := v.int("n"), v.int("users"), v.int("conns"), v.int("keys")
	scan, del, window := v.int("scan_pct"), v.int("delete_pct"), v.int("window")
	// One sweep per x axis: open-loop arrival rate (Poisson — and, when
	// enabled, the same rates as on/off bursts) at fixed skew and mix,
	// then key skew and read share under closed-loop load.
	type sweep struct {
		prefix, xLabel string
		xs             []int
		set            func(w *workload.Config, x int)
	}
	closed := workload.Closed(window, 0)
	sweeps := []sweep{{"rate", "rate_ops_s", v.ints("rates"), func(w *workload.Config, rate int) {
		w.Mix, w.Keys, w.Arrival = e9Mix(e9MidRead, scan, del), keyChooser(keys, 99), workload.Poisson(float64(rate))
	}}}
	if burst := sim.Time(v.int("burst_us")) * sim.Microsecond; burst > 0 {
		sweeps = append(sweeps, sweep{"burst", "rate_ops_s", v.ints("rates"), func(w *workload.Config, rate int) {
			w.Mix, w.Keys, w.Arrival = e9Mix(e9MidRead, scan, del), keyChooser(keys, 99), workload.Bursts(float64(rate), burst, burst)
		}})
	}
	sweeps = append(sweeps,
		sweep{"skew", "zipf_theta_x100", v.ints("skews"), func(w *workload.Config, skew int) {
			w.Mix, w.Keys, w.Arrival = e9Mix(e9MidRead, scan, del), keyChooser(keys, skew), closed
		}},
		sweep{"mix", "read_pct", v.ints("read_pcts"), func(w *workload.Config, readPct int) {
			w.Mix, w.Keys, w.Arrival = e9Mix(readPct, scan, del), keyChooser(keys, 99), closed
		}})
	// point measures one x of a sweep on a fresh system; sys names it.
	point := func(sw sweep, x int, kind transport.Kind, instances int, sys string) (TrafficResult, error) {
		d, err := newAgreement(deploySpec{
			kind: kind, pbft: pbftConfig(n, (n-1)/3, 0), seed: rc.Seed, conns: conns, trace: rc.Trace,
			label: fmt.Sprintf("E9 %s %s N=%d users=%d conns=%d seed=%d", sys, kind, n, users, conns, rc.Seed),
		}, instances, rc.Model)
		if err != nil {
			return TrafficResult{}, err
		}
		w := workload.Config{Users: users, Ops: v.int("ops"), Warmup: v.int("warmup"), ValueSize: v.int("value_bytes")}
		sw.set(&w, x)
		return d.runWorkload(w)
	}
	// Systems under test: plain PBFT (0 instances), then COP at each K.
	for _, sw := range sweeps {
		for _, kind := range e8Transports {
			for _, instances := range append([]int{0}, v.ints("ks")...) {
				sys := "PBFT"
				if instances > 0 {
					sys = fmt.Sprintf("COP-%d", instances)
				}
				ss := addTrafficSeries(res, fmt.Sprintf("%s %s %s", sw.prefix, sys, e8Label(kind)), string(kind), sw.xLabel, colPeakQueue)
				for _, x := range sw.xs {
					r, err := point(sw, x, kind, instances, sys)
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
