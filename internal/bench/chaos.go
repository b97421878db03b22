package bench

import (
	"errors"
	"fmt"
	"strings"

	"rubin/internal/chaos"
	"rubin/internal/fabric"
	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/pbft"
	"rubin/internal/shard"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// The E7 timeline: replica 0 leads view 0 and crashes first; replica 1
// leads view 1 — one crash costs one view change — and is partitioned
// away later, forcing a second view change in the majority partition.
// Replica 2, view 2's leader, crashes 5 ms after the heal, while replica 1
// still trails: the next NEW-VIEW re-proposes the batches in flight.
const (
	e7Crash     = 150 * sim.Millisecond
	e7Restart   = 500 * sim.Millisecond
	e7Partition = 900 * sim.Millisecond
	e7Heal      = 1400 * sim.Millisecond
	e7End       = 1900 * sim.Millisecond
)

// e7Scenario returns the scripted fault events of the E7 timeline.
func e7Scenario() *chaos.Scenario {
	return chaos.NewScenario("E7-fault-timeline").
		Crash(e7Crash, 0).
		Restart(e7Restart, 0).
		Partition(e7Partition, []int{1}, []int{0, 2, 3}).
		Heal(e7Heal).
		Crash(e7Heal+5*sim.Millisecond, 2)
}

// e7Phases returns the measurement phases of the E7 timeline, one per act
// of e7Scenario.
func e7Phases() []faultPhase {
	return []faultPhase{
		{name: "healthy", end: e7Crash},
		{name: "crash+viewchange", end: e7Restart},
		{name: "recovery", end: e7Partition},
		{name: "partition", end: e7Heal},
		{name: "healed+crash", end: e7End},
	}
}

// faultPhase is one measurement segment of a fault timeline: it ends at
// end, an offset into the run, where the next phase starts, and rec holds
// the latency of every reply that lands in it.
type faultPhase struct {
	name string
	end  sim.Time
	rec  metrics.Recorder
}

// phaseOf returns the index of the phase a reply landing at offset at
// counts to: the first phase that ends after it, so a reply exactly at a
// phase's end counts to the next one, and the last phase for a reply at
// the run's final instant.
func phaseOf(phases []faultPhase, at sim.Time) int {
	for i := range phases {
		if at < phases[i].end {
			return i
		}
	}
	return len(phases) - 1
}

// throughput is phase i's replies per second over its own span.
func throughput(phases []faultPhase, i int) float64 {
	var start sim.Time
	if i > 0 {
		start = phases[i-1].end
	}
	return metrics.Throughput(phases[i].rec.Count(), phases[i].end-start)
}

// faultTimelineConfig is the protocol configuration of the fault-timeline
// experiments (E7, E12): small batches and a short checkpoint interval so
// a few hundred milliseconds of traffic cross many checkpoints.
func faultTimelineConfig() pbft.Config {
	cfg := pbft.DefaultConfig()
	cfg.BatchSize = 4
	cfg.CheckpointEvery = 8
	cfg.LogWindow = 128
	return cfg
}

// runFaultTimeline is the one run E7 and E12 share: a plain PBFT group on
// faultTimelineConfig (spec names its backend and seed, app its state
// machines; nil keeps the default store), the scenario applied, and one
// connection keeping window puts outstanding until the last phase ends —
// key names the sent-th put's key, and each reply's latency goes to the
// phase it lands in (phaseOf). watch schedules the caller's probes on
// group 0 before the loop runs. It returns the deployment to read counters
// from and the fault trace.
func runFaultTimeline(spec deploySpec, app func(int) pbft.Application, params model.Params, scenario *chaos.Scenario, phases []faultPhase, window, payload int,
	key func(sent int) string, watch func(c *pbft.Cluster, base sim.Time)) (*deployment, string, error) {
	spec.conns = 1
	d, err := deploy(spec, shard.Config{Shards: 1, PBFT: faultTimelineConfig(), App: app}, oneHostSet, params)
	if err != nil {
		return nil, "", err
	}
	sched := chaos.Apply(d.groups[0], scenario)
	loop, base, end := d.loop, d.loop.Now(), phases[len(phases)-1].end
	d.putLoop(window, payload, func(_, sent int) (string, bool) {
		if loop.Now()-base >= end {
			return "", false
		}
		return key(sent), true
	}, func(_ int, latency sim.Time) bool {
		phases[phaseOf(phases, loop.Now()-base)].rec.Record(latency)
		return true
	})
	watch(d.groups[0], base)
	loop.RunUntil(base + end)
	if err := errors.Join(sched.Err(), d.agreement()); err != nil {
		return nil, "", err
	}
	return d, sched.TraceString(), nil
}

// runE7Timeline runs the E7 fault timeline on one backend with window puts
// of payload bytes outstanding, watch scheduling the caller's probes. It
// returns the measured phases, the deployment and the fault trace.
func runE7Timeline(kind transport.Kind, payload, window int, seed int64, params model.Params, watch func(c *pbft.Cluster, base sim.Time)) ([]faultPhase, *deployment, string, error) {
	// Cycle a bounded key space: the store (and therefore per-checkpoint
	// snapshot cost) stays constant over an arbitrarily long run. The
	// space is sized to the payload to bound per-checkpoint marshal cost;
	// state above the transport frame limit is fine (it crosses as
	// per-partition StateParts), it just costs more virtual time to ship.
	keySpace := min(max(200_000/(payload+24), 4), 128)
	phases := e7Phases()
	d, trace, err := runFaultTimeline(deploySpec{kind: kind, seed: seed}, nil, params, e7Scenario(), phases, window, payload,
		func(sent int) string { return fmt.Sprintf("chaos-%03d", sent%keySpace) }, watch)
	return phases, d, trace, err
}

// ---------------------------------------------------------------------------
// Registry entry: E7 (agreement under a scripted fault timeline).
// ---------------------------------------------------------------------------

func init() {
	Register(Experiment{
		Name:   "E7",
		Title:  "BFT agreement under faults (crash, view change, state transfer, partition, heal)",
		Figure: "beyond the paper: fault-regime evaluation",
		knobs: []knob{
			{name: "payload", def: "512", min: 1},
			// Quick mode was once pinned to window 4 because window 8
			// wedged the healed phase (two replicas lagging together
			// deadlocked the stable checkpoint; see
			// TestChaosWindow8Regression). Fixed by the F+1 state-transfer
			// trigger — quick mode now runs the once-bad window to keep the
			// regression visible in CI.
			{name: "window", def: "16", quick: "8", min: 1},
		},
		// A simulation-cost bound: msgnet chunks any message above the
		// frame limit, so no payload wedges the timeline, but large ones
		// take proportionally long to simulate.
		check: func(v values) error {
			if p := v.int("payload"); p > 256<<10 {
				return fmt.Errorf("payload %d above %d", p, 256<<10)
			}
			return nil
		},
		run: runE7,
	})
}

func runE7(rc RunContext, v values, res *metrics.Result) error {
	var names []string
	for _, p := range e7Phases() {
		names = append(names, p.name)
	}
	res.SetConfig("phases", strings.Join(names, ","))
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		phases, d, trace, err := runE7Timeline(kind, v.int("payload"), v.int("window"), rc.Seed, rc.Model, func(*pbft.Cluster, sim.Time) {})
		if err != nil {
			return err
		}
		name := string(kind)
		tput := res.AddSeries(name, metrics.MetricThroughput, "req/s", name, "phase_index")
		mean := res.AddSeries(name, metrics.MetricLatencyMean, "us", name, "phase_index")
		p99 := res.AddSeries(name, metrics.MetricLatencyP99, "us", name, "phase_index")
		commits := res.AddSeries(name, metrics.MetricCommits, "count", name, "phase_index")
		for i := range phases {
			p := &phases[i]
			// The timeline is designed to stay live in every phase (the
			// partition keeps a quorum intact); a zero-commit phase means
			// the cluster wedged and the table would misreport a dead run.
			if p.rec.Count() == 0 {
				return fmt.Errorf("bench: phase %q committed nothing (cluster wedged — check payload/transport limits)", p.name)
			}
			x := float64(i)
			tput.Add(x, throughput(phases, i))
			mean.Add(x, p.rec.Mean().Micros())
			p99.Add(x, p.rec.Percentile(99).Micros())
			commits.Add(x, float64(p.rec.Count()))
		}
		cluster, stats := d.groups[0], d.stats()
		counters := res.AddSeries(name+" counters", "fault_counters", "count", name, "counter_index")
		counters.Add(0, float64(cluster.Replicas[0].StateTransfers())) // state transfers completed
		counters.Add(1, stats["pbft.send_faults"])                     // surfaced delivery failures
		counters.Add(2, stats["msgnet.peak_queue_bytes"])              // peak msgnet queue depth (bytes)
		counters.Add(3, stats["pbft.reproposed"])                      // sequences re-proposed by a NEW-VIEW
		// Per replica: the restarted one absorbs a state snapshot, and the
		// partition dams up queues toward the cut-off one.
		peakQ := res.AddSeries(name+" queue", metrics.MetricPeakQueueBytes, "bytes", name, "replica_index")
		for i, node := range d.hosts {
			peakQ.Add(float64(i), fabric.Fold(node)["msgnet.peak_queue_bytes"])
		}
		res.SetConfig("cluster["+name+"]", fmt.Sprintf("%d replicas, f=%d", cluster.Config.N, cluster.Config.F))
		res.SetNote("trace["+name+"]", trace)
	}
	res.SetConfig("counter_index", "0=state_transfers,1=send_faults,2=peak_queue_bytes,3=reproposed")
	return nil
}
