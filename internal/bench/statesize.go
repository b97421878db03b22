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

// StateSizeConfig parameterizes one E12 run.
type StateSizeConfig struct {
	Kind    transport.Kind
	Prefill int   // cold keys preloaded into every replica's store
	Payload int   // value size in bytes for cold and hot keys
	Window  int   // client-side outstanding requests
	Seed    int64 // simulation seed
	// EmptyRestart reboots the crashed replica with an empty store instead
	// of the cold prefill (baseline: the whole state is transferred).
	EmptyRestart bool
}

// DefaultStateSizeConfig returns the standard E12 single-run setup.
func DefaultStateSizeConfig(kind transport.Kind) StateSizeConfig {
	return StateSizeConfig{Kind: kind, Prefill: 8000, Payload: 64, Window: 8, Seed: 1}
}

// StateSizeResult is one E12 run: one transport, one prefill size, one
// restart input.
type StateSizeResult struct {
	Kind         transport.Kind
	Prefill      int
	EmptyRestart bool
	StateBytes   int // serialized store size at run end

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

// stateSizeTimeline mirrors E7's crash/recover arc without the
// partition act: traffic, a backup crash, a restart into a large state.
func stateSizeTimeline() (*chaos.Scenario, crashPoints) {
	pts := crashPoints{
		Crash:   300 * sim.Millisecond,
		Restart: 600 * sim.Millisecond,
		End:     1200 * sim.Millisecond,
	}
	s := chaos.NewScenario("E12-state-size").
		Crash(pts.Crash, 3).
		Restart(pts.Restart, 3)
	return s, pts
}

type crashPoints struct {
	Crash, Restart, End sim.Time
}

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

// RunStateSize executes one E12 configuration.
func RunStateSize(cfg StateSizeConfig, params model.Params) (StateSizeResult, error) {
	if cfg.Prefill < 0 || cfg.Prefill > 1<<20 {
		return StateSizeResult{}, fmt.Errorf("bench: prefill %d out of range [0, %d]", cfg.Prefill, 1<<20)
	}
	if cfg.Payload < 1 || cfg.Payload > 4<<10 {
		return StateSizeResult{}, fmt.Errorf("bench: payload %d out of range [1, %d]", cfg.Payload, 4<<10)
	}
	// Every store instance starts from the identical cold prefill — the
	// restarted one too, modeling a replica that recovers from its durable
	// local checkpoint: the cold partitions match the group's digests, so
	// the transfer ships only the hot subtrees. Under EmptyRestart the
	// rebooted replica has lost that too and matches nothing.
	coldValue := string(make([]byte, cfg.Payload))
	coldKeys := stateSizeKeys("cold", cfg.Prefill, func(b int) bool { return b >= stateSizeHotBuckets })
	booted := make(map[int]bool)
	appFactory := func(i int) pbft.Application {
		s := kvstore.New()
		restart := booted[i]
		booted[i] = true
		if restart && cfg.EmptyRestart {
			return s
		}
		for _, k := range coldKeys {
			s.Execute(kvstore.EncodeOp(kvstore.OpPut, k, coldValue))
		}
		return s
	}
	d, err := newPBFT(deploySpec{kind: cfg.Kind, pbft: faultTimelineConfig(), seed: cfg.Seed, conns: 1, app: appFactory}, params)
	if err != nil {
		return StateSizeResult{}, err
	}
	cluster := d.cluster

	scenario, pts := stateSizeTimeline()
	sched := chaos.Apply(cluster, scenario)
	loop := d.loop
	base := loop.Now()

	// Closed-loop hot-key workload, cycling a bounded working set.
	hotKeys := stateSizeKeys("hot", 64, func(b int) bool { return b < stateSizeHotBuckets })
	value := string(make([]byte, cfg.Payload))
	healthy, recovered := metrics.NewRecorder(), metrics.NewRecorder()
	committed, sent := 0, 0
	var sendOne func()
	sendOne = func() {
		if loop.Now()-base >= pts.End {
			return
		}
		idx := sent
		sent++
		t0 := loop.Now()
		op := kvstore.EncodeOp(kvstore.OpPut, hotKeys[idx%len(hotKeys)], value)
		d.submit(0, op, func([]byte) {
			committed++
			switch at := loop.Now() - base; {
			case at < pts.Crash:
				healthy.Record(loop.Now() - t0)
			case at >= pts.Restart:
				recovered.Record(loop.Now() - t0)
			}
			sendOne()
		})
	}
	loop.Post(func() {
		for i := 0; i < cfg.Window; i++ {
			sendOne()
		}
	})

	// Recovery probe: from the restart instant, poll virtual time until
	// the restarted replica has adopted a checkpoint and executed past
	// the group's position at restart. Polling on the deterministic loop
	// keeps the measurement byte-reproducible.
	var recovery sim.Time = -1
	loop.At(base+pts.Restart, func() {
		target := cluster.Replicas[0].Executed()
		var poll func()
		poll = func() {
			rep := cluster.Replicas[3]
			if rep.StateTransfers() > 0 && rep.Executed() >= target {
				recovery = loop.Now() - (base + pts.Restart)
				return
			}
			if loop.Now()-base < pts.End {
				loop.After(250*sim.Microsecond, poll)
			}
		}
		poll()
	})
	loop.RunUntil(base + pts.End)

	if err := sched.Err(); err != nil {
		return StateSizeResult{}, err
	}
	if recovery < 0 {
		return StateSizeResult{}, fmt.Errorf("bench: E12 replica never recovered (prefill=%d empty-restart=%v %s)", cfg.Prefill, cfg.EmptyRestart, cfg.Kind)
	}
	if healthy.Count() == 0 || recovered.Count() == 0 {
		return StateSizeResult{}, fmt.Errorf("bench: E12 phase committed nothing (prefill=%d empty-restart=%v %s)", cfg.Prefill, cfg.EmptyRestart, cfg.Kind)
	}
	var served uint64
	for _, rep := range cluster.Replicas {
		served += rep.StateBytesServed()
	}
	cpCount, cpBytes := cluster.Replicas[0].CheckpointSteadyStats()
	var meanCp uint64
	var pause sim.Time
	if cpCount > 0 {
		meanCp = cpBytes / cpCount
		pause = auth.DigestCost(params.Crypto, int(meanCp))
	}
	return StateSizeResult{
		Kind:                  cfg.Kind,
		Prefill:               cfg.Prefill,
		EmptyRestart:          cfg.EmptyRestart,
		StateBytes:            len(cluster.Apps[0].(*kvstore.Store).MarshalState()),
		SteadyCheckpoints:     cpCount,
		SteadyCheckpointBytes: meanCp,
		CheckpointPause:       pause,
		Recovery:              recovery,
		TransferBytes:         served,
		StateTransfers:        cluster.Replicas[3].StateTransfers(),
		StateRejects:          cluster.Replicas[3].StateRejects(),
		HealthyTput:           metrics.Throughput(healthy.Count(), pts.Crash),
		RecoveredTput:         metrics.Throughput(recovered.Count(), pts.End-pts.Restart),
		Committed:             committed,
		Trace:                 sched.TraceString(),
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
				cfg := StateSizeConfig{Kind: kind, Prefill: prefill, Payload: v.int("payload"),
					Window: v.int("window"), Seed: rc.Seed, EmptyRestart: empty}
				r, err := RunStateSize(cfg, rc.Model)
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
