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
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// ChaosPhase is one segment of the E7 fault timeline with its measured
// client-side metrics. Commits are attributed to the phase in which they
// complete.
type ChaosPhase struct {
	Name       string
	Start, End sim.Time // offsets into the run
	Committed  int
	MeanLat    sim.Time
	P99Lat     sim.Time
	Throughput float64 // requests per second
}

// ChaosResult is one full E7 run.
type ChaosResult struct {
	N, F           int // replica-group shape the timeline ran against
	Phases         []ChaosPhase
	Trace          string // virtual-time fault trace (deterministic per seed)
	StateTransfers uint64 // completed by the restarted replica
	SendFaults     uint64 // delivery failures surfaced by msgnet across replicas
	PeakQueueBytes int    // deepest msgnet send queue observed on any replica
	// PeakQueueBytesPerReplica is the per-replica send-queue high
	// watermark (index = replica id): the fault timeline stresses
	// replicas asymmetrically — the restarted replica absorbs a state
	// snapshot and the partition dams up queues toward the cut-off node.
	PeakQueueBytesPerReplica []int
	// LeaderAtPartition is who led the group when the partition fired, and
	// FinalViews each replica's view at the end (index = replica id): the
	// checks that the timeline's phases contain the faults they are named
	// after.
	LeaderAtPartition uint32
	FinalViews        []uint64
	// Reproposed counts the request batches sent NEW-VIEWs re-proposed.
	Reproposed uint64
}

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

// chaosTimeline returns the scripted fault events and the matching
// measurement phases.
func chaosTimeline() (*chaos.Scenario, []ChaosPhase) {
	s := chaos.NewScenario("E7-fault-timeline").
		Crash(e7Crash, 0).
		Restart(e7Restart, 0).
		Partition(e7Partition, []int{1}, []int{0, 2, 3}).
		Heal(e7Heal).
		Crash(e7Heal+5*sim.Millisecond, 2)
	phases := []ChaosPhase{
		{Name: "healthy", Start: 0, End: e7Crash},
		{Name: "crash+viewchange", Start: e7Crash, End: e7Restart},
		{Name: "recovery", Start: e7Restart, End: e7Partition},
		{Name: "partition", Start: e7Partition, End: e7Heal},
		{Name: "healed+crash", Start: e7Heal, End: e7End},
	}
	return s, phases
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

// runFaultTimeline is the one run E7 and E12 share: a plain PBFT cluster
// on faultTimelineConfig (spec names its backend, seed and state
// machines), the scenario applied, one connection keeping window puts
// outstanding from now until end — key names the sent-th put's key,
// completed sees each reply with its offset into the run and its latency —
// and watch scheduling the caller's probes before the loop runs. It
// returns the deployment to read counters from and the fault trace.
func runFaultTimeline(spec deploySpec, params model.Params, scenario *chaos.Scenario, end sim.Time, window, payload int,
	key func(sent int) string, completed func(at, latency sim.Time), watch func(c *pbft.Cluster, base sim.Time)) (*deployment, string, error) {
	spec.pbft, spec.conns = faultTimelineConfig(), 1
	d, err := newPBFT(spec, params)
	if err != nil {
		return nil, "", err
	}
	sched := chaos.Apply(d.cluster, scenario)
	loop, base := d.loop, d.loop.Now()
	d.putLoop(window, payload, func(_, sent int) (string, bool) {
		if loop.Now()-base >= end {
			return "", false
		}
		return key(sent), true
	}, func(_ int, latency sim.Time) bool {
		completed(loop.Now()-base, latency)
		return true
	})
	watch(d.cluster, base)
	loop.RunUntil(base + end)
	if err := errors.Join(sched.Err(), d.agreement()); err != nil {
		return nil, "", err
	}
	return d, sched.TraceString(), nil
}

// maxChaosPayload bounds the request payload. This is purely a
// simulation-cost bound now: msgnet chunks any protocol message above the
// transport frame limit (VIEW-CHANGE aggregates and state snapshots
// included), so no payload size wedges the timeline anymore — large
// payloads just take proportionally long to simulate.
const maxChaosPayload = 256 << 10

// RunChaos measures client-observed throughput and latency of the
// replicated system on one backend across the E7 fault timeline, with
// window puts of payload bytes outstanding.
func RunChaos(kind transport.Kind, payload, window int, seed int64, params model.Params) (ChaosResult, error) {
	if payload < 1 || payload > maxChaosPayload {
		return ChaosResult{}, fmt.Errorf("bench: chaos payload %d out of range [1, %d]", payload, maxChaosPayload)
	}
	scenario, phases := chaosTimeline()
	recs := make([]*metrics.Recorder, len(phases))
	for i := range recs {
		recs[i] = metrics.NewRecorder()
	}
	// Cycle a bounded key space: the store (and therefore per-checkpoint
	// snapshot cost) stays constant over an arbitrarily long run. The
	// space is sized to the payload to bound per-checkpoint marshal cost;
	// state above the transport frame limit is fine (it crosses as
	// per-partition StateParts), it just costs more virtual time to ship.
	keySpace := min(max(200_000/(payload+24), 4), 128)
	var leaderAtPartition uint32
	d, trace, err := runFaultTimeline(deploySpec{kind: kind, seed: seed}, params, scenario, e7End, window, payload,
		func(sent int) string { return fmt.Sprintf("chaos-%03d", sent%keySpace) },
		func(at, latency sim.Time) {
			for i := range phases {
				if at < phases[i].End {
					recs[i].Record(latency)
					return
				}
			}
		},
		func(c *pbft.Cluster, base sim.Time) {
			c.Loop.At(base+e7Partition, func() {
				leaderAtPartition = c.Replicas[2].Leader(c.Replicas[2].View())
			})
		})
	if err != nil {
		return ChaosResult{}, err
	}
	cluster := d.cluster
	for i := range phases {
		phases[i].Committed = recs[i].Count()
		phases[i].MeanLat = recs[i].Mean()
		phases[i].P99Lat = recs[i].Percentile(99)
		phases[i].Throughput = metrics.Throughput(recs[i].Count(), phases[i].End-phases[i].Start)
		// The timeline is designed to stay live in every phase (the
		// partition keeps a quorum intact); a zero-commit phase means
		// the cluster wedged and the table would misreport a dead run.
		if phases[i].Committed == 0 {
			return ChaosResult{}, fmt.Errorf("bench: phase %q committed nothing (cluster wedged — check payload/transport limits)", phases[i].Name)
		}
	}
	perReplica := make([]int, len(d.hosts))
	for i, node := range d.hosts {
		perReplica[i] = int(fabric.Fold(node)["msgnet.peak_queue_bytes"])
	}
	stats := d.stats()
	views := make([]uint64, len(cluster.Replicas))
	for i, rep := range cluster.Replicas {
		views[i] = rep.View()
	}
	return ChaosResult{
		LeaderAtPartition:        leaderAtPartition,
		FinalViews:               views,
		N:                        cluster.Config.N,
		F:                        cluster.Config.F,
		Phases:                   phases,
		Trace:                    trace,
		StateTransfers:           cluster.Replicas[0].StateTransfers(),
		SendFaults:               uint64(stats["pbft.send_faults"]),
		Reproposed:               uint64(stats["pbft.reproposed"]),
		PeakQueueBytes:           int(stats["msgnet.peak_queue_bytes"]),
		PeakQueueBytesPerReplica: perReplica,
	}, nil
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
		run: runE7,
	})
}

// phaseNames lists the fixed E7 timeline phases in index order.
func phaseNames() []string {
	_, phases := chaosTimeline()
	names := make([]string, len(phases))
	for i, p := range phases {
		names[i] = p.Name
	}
	return names
}

func runE7(rc RunContext, v values, res *metrics.Result) error {
	res.SetConfig("phases", strings.Join(phaseNames(), ","))
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		r, err := RunChaos(kind, v.int("payload"), v.int("window"), rc.Seed, rc.Model)
		if err != nil {
			return err
		}
		name := string(kind)
		tput := res.AddSeries(name, metrics.MetricThroughput, "req/s", name, "phase_index")
		mean := res.AddSeries(name, metrics.MetricLatencyMean, "us", name, "phase_index")
		p99 := res.AddSeries(name, metrics.MetricLatencyP99, "us", name, "phase_index")
		commits := res.AddSeries(name, metrics.MetricCommits, "count", name, "phase_index")
		for i, p := range r.Phases {
			x := float64(i)
			tput.Add(x, p.Throughput)
			mean.Add(x, p.MeanLat.Micros())
			p99.Add(x, p.P99Lat.Micros())
			commits.Add(x, float64(p.Committed))
		}
		counters := res.AddSeries(name+" counters", "fault_counters", "count", name, "counter_index")
		counters.Add(0, float64(r.StateTransfers)) // state transfers completed
		counters.Add(1, float64(r.SendFaults))     // surfaced delivery failures
		counters.Add(2, float64(r.PeakQueueBytes)) // peak msgnet queue depth (bytes)
		counters.Add(3, float64(r.Reproposed))     // sequences re-proposed by a NEW-VIEW
		peakQ := res.AddSeries(name+" queue", metrics.MetricPeakQueueBytes, "bytes", name, "replica_index")
		for i, q := range r.PeakQueueBytesPerReplica {
			peakQ.Add(float64(i), float64(q))
		}
		res.SetConfig("cluster["+name+"]", fmt.Sprintf("%d replicas, f=%d", r.N, r.F))
		res.SetNote("trace["+name+"]", r.Trace)
	}
	res.SetConfig("counter_index", "0=state_transfers,1=send_faults,2=peak_queue_bytes,3=reproposed")
	return nil
}
