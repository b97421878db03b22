package bench

import (
	"fmt"

	"rubin/internal/auth"
	"rubin/internal/chaos"
	"rubin/internal/kvstore"
	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/pbft"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// Experiment E12 extends the E7 fault timeline with a state-size axis:
// every replica carries a cold prefilled store while a hot working set
// keeps committing, a backup crashes and restarts, and the run measures
// what the accumulated state costs — the steady per-checkpoint
// serialization (and its modeled digest pause), the bytes a recovery
// moves, and the time until the restarted replica rejoins. Two inputs to
// the one transfer protocol are compared: a replica that reboots from its
// durable cold state (partial — only the hot subtrees diverge) and one
// that reboots with an empty store (empty-restart — every partition
// diverges, so the whole state crosses the wire: the baseline).
//
// Hot keys are confined to the low Merkle buckets and cold prefill to
// the rest: incremental checkpoints win exactly when updates concentrate
// in a subset of partitions (hot-set/cold-mass separation); a workload
// that sprayed writes uniformly across all 256 buckets would re-dirty
// everything and ship the whole state — that is the granularity
// tradeoff of partition-level deltas, not a failure of the mechanism.

// stateSizeHotBuckets is the bucket cutoff: workload keys hash below it,
// prefill keys at or above it.
const stateSizeHotBuckets = 8

// StateSizeResult is one E12 run: one transport, one prefill size, one
// restart input.
type StateSizeResult struct {
	StateBytes int // serialized store size at run end

	// Checkpoint cost after the first (base) checkpoint: mean bytes
	// serialized per interval and the modeled digest pause they imply.
	SteadyCheckpoints     uint64
	SteadyCheckpointBytes uint64 // mean per checkpoint
	CheckpointPause       sim.Time

	// Recovery of the restarted backup.
	Recovery       sim.Time // restart -> executed caught up to the group
	TransferBytes  uint64   // state bytes served by all responders
	StateTransfers uint64   // adoptions completed by the restarted replica
	StateRejects   uint64   // corrupted/mismatched transfer rejections (0 here)

	// Client-observed agreement throughput while healthy and while the
	// restarted replica was absorbing state.
	HealthyTput   float64
	RecoveredTput float64
	Committed     int
	Trace         string // deterministic virtual-time fault trace
}

// The E12 timeline mirrors E7's crash/recover arc without the partition
// act: traffic, a backup crash, a restart into a large state.
const (
	e12Crash   = 300 * sim.Millisecond
	e12Restart = 600 * sim.Millisecond
	e12End     = 1200 * sim.Millisecond
)

// stateSizeKeys returns n keys whose Merkle bucket satisfies keep,
// generated deterministically.
func stateSizeKeys(prefix string, n int, keep func(b int) bool) []string {
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("%s%07d", prefix, i)
		if keep(kvstore.PartitionKey(k, kvstore.MerkleBuckets)) {
			keys = append(keys, k)
		}
	}
	return keys
}

// RunStateSize executes one E12 configuration on one backend: prefill
// cold keys preloaded into every replica's store, values of payload bytes,
// window puts outstanding. emptyRestart reboots the crashed replica with an
// empty store instead of the cold prefill (the baseline: the whole state is
// transferred).
func RunStateSize(kind transport.Kind, prefill, payload, window int, emptyRestart bool, seed int64, params model.Params) (StateSizeResult, error) {
	if prefill < 0 || prefill > 1<<20 {
		return StateSizeResult{}, fmt.Errorf("bench: prefill %d out of range [0, %d]", prefill, 1<<20)
	}
	if payload < 1 || payload > 4<<10 {
		return StateSizeResult{}, fmt.Errorf("bench: payload %d out of range [1, %d]", payload, 4<<10)
	}
	// Every store instance starts from the identical cold prefill — the
	// restarted one too, modeling a replica that recovers from its durable
	// local checkpoint: the cold partitions match the group's digests, so
	// the transfer ships only the hot subtrees. Under EmptyRestart the
	// rebooted replica has lost that too and matches nothing.
	coldValue := string(make([]byte, payload))
	coldKeys := stateSizeKeys("cold", prefill, func(b int) bool { return b >= stateSizeHotBuckets })
	booted := make(map[int]bool)
	appFactory := func(i int) pbft.Application {
		s := kvstore.New()
		restart := booted[i]
		booted[i] = true
		if restart && emptyRestart {
			return s
		}
		for _, k := range coldKeys {
			s.Execute(kvstore.EncodeOp(kvstore.OpPut, k, coldValue))
		}
		return s
	}
	// Closed-loop hot-key workload, cycling a bounded working set.
	hotKeys := stateSizeKeys("hot", 64, func(b int) bool { return b < stateSizeHotBuckets })
	healthy, recovered := metrics.NewRecorder(), metrics.NewRecorder()
	committed := 0
	var recovery sim.Time = -1
	scenario := chaos.NewScenario("E12-state-size").Crash(e12Crash, 3).Restart(e12Restart, 3)
	d, trace, err := runFaultTimeline(deploySpec{kind: kind, seed: seed, app: appFactory}, params, scenario, e12End, window, payload,
		func(sent int) string { return hotKeys[sent%len(hotKeys)] },
		func(at, latency sim.Time) {
			committed++
			switch {
			case at < e12Crash:
				healthy.Record(latency)
			case at >= e12Restart:
				recovered.Record(latency)
			}
		},
		// Recovery probe: from the restart instant, poll virtual time until
		// the restarted replica has adopted a checkpoint and executed past
		// the group's position at restart. Polling on the deterministic loop
		// keeps the measurement byte-reproducible.
		func(c *pbft.Cluster, base sim.Time) {
			loop := c.Loop
			loop.At(base+e12Restart, func() {
				target := c.Replicas[0].Executed()
				var poll func()
				poll = func() {
					if rep := c.Replicas[3]; rep.StateTransfers() > 0 && rep.Executed() >= target {
						recovery = loop.Now() - (base + e12Restart)
					} else if loop.Now()-base < e12End {
						loop.After(250*sim.Microsecond, poll)
					}
				}
				poll()
			})
		})
	if err != nil {
		return StateSizeResult{}, err
	}
	cluster := d.cluster
	if recovery < 0 {
		return StateSizeResult{}, fmt.Errorf("bench: E12 replica never recovered (prefill=%d empty-restart=%v %s)", prefill, emptyRestart, kind)
	}
	if healthy.Count() == 0 || recovered.Count() == 0 {
		return StateSizeResult{}, fmt.Errorf("bench: E12 phase committed nothing (prefill=%d empty-restart=%v %s)", prefill, emptyRestart, kind)
	}
	cpCount, cpBytes := cluster.Replicas[0].CheckpointSteadyStats()
	var meanCp uint64
	var pause sim.Time
	if cpCount > 0 {
		meanCp = cpBytes / cpCount
		pause = auth.DigestCost(params.Crypto, int(meanCp))
	}
	return StateSizeResult{
		StateBytes:            len(cluster.Apps[0].(*kvstore.Store).MarshalState()),
		SteadyCheckpoints:     cpCount,
		SteadyCheckpointBytes: meanCp,
		CheckpointPause:       pause,
		Recovery:              recovery,
		TransferBytes:         uint64(d.stats()["pbft.state_bytes_served"]),
		StateTransfers:        cluster.Replicas[3].StateTransfers(),
		StateRejects:          cluster.Replicas[3].StateRejects(),
		HealthyTput:           metrics.Throughput(healthy.Count(), e12Crash),
		RecoveredTput:         metrics.Throughput(recovered.Count(), e12End-e12Restart),
		Committed:             committed,
		Trace:                 trace,
	}, nil
}

// ---------------------------------------------------------------------------
// Registry entry: E12 (checkpoint and recovery cost vs state size).
// ---------------------------------------------------------------------------

func init() {
	Register(Experiment{
		Name:   "E12",
		Title:  "Checkpoint and recovery cost vs state size (cold restart vs empty restart)",
		Figure: "beyond the paper: state-transfer amplification study",
		knobs: []knob{
			{name: "prefills", def: "2000,8000,32000", quick: "500,2000", min: 1, list: true},
			{name: "payload", def: "64", min: 1},
			{name: "window", def: "8", min: 1},
		},
		run: runE12,
	})
}

func runE12(rc RunContext, v values, res *metrics.Result) error {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		for _, empty := range []bool{false, true} {
			mode := "partial"
			if empty {
				mode = "empty-restart"
			}
			name := mode + " " + string(kind)
			tr := string(kind)
			recoverS := res.AddSeries(name, metrics.MetricRecoveryTime, "us", tr, "prefill_keys")
			cpBytesS := res.AddSeries(name, metrics.MetricCheckpointBytes, "bytes", tr, "prefill_keys")
			pauseS := res.AddSeries(name, metrics.MetricCheckpointPause, "us", tr, "prefill_keys")
			xferS := res.AddSeries(name, metrics.MetricTransferBytes, "bytes", tr, "prefill_keys")
			stateS := res.AddSeries(name, metrics.MetricStateBytes, "bytes", tr, "prefill_keys")
			tputS := res.AddSeries(name, metrics.MetricThroughput, "req/s", tr, "prefill_keys")
			dipS := res.AddSeries(name, metrics.MetricThroughputDip, "ratio", tr, "prefill_keys")
			for _, prefill := range v.ints("prefills") {
				r, err := RunStateSize(kind, prefill, v.int("payload"), v.int("window"), empty, rc.Seed, rc.Model)
				if err != nil {
					return err
				}
				if r.StateRejects != 0 {
					return fmt.Errorf("bench: E12 rejected %d transfers on a fault-free network", r.StateRejects)
				}
				x := float64(prefill)
				recoverS.Add(x, r.Recovery.Micros())
				cpBytesS.Add(x, float64(r.SteadyCheckpointBytes))
				pauseS.Add(x, r.CheckpointPause.Micros())
				xferS.Add(x, float64(r.TransferBytes))
				stateS.Add(x, float64(r.StateBytes))
				tputS.Add(x, r.HealthyTput)
				dipS.Add(x, r.RecoveredTput/r.HealthyTput)
				res.SetNote(fmt.Sprintf("trace[%s prefill=%d]", name, prefill), r.Trace)
			}
		}
	}
	res.SetConfig("cluster", fmt.Sprintf("%d replicas, f=%d", pbft.DefaultConfig().N, pbft.DefaultConfig().F))
	res.SetConfig("modes", "partial=restart from the cold prefill (only hot partitions diverge), empty-restart=restart with an empty store (every partition diverges; baseline)")
	return nil
}
