package bench

import (
	"fmt"

	"rubin/internal/auth"
	"rubin/internal/chaos"
	"rubin/internal/kvstore"
	"rubin/internal/metrics"
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

// e12Stores returns the state machines of one E12 run: every store, the
// restarted one's too, starts from prefill cold keys of payload-byte values
// — a replica recovering from its durable local checkpoint, whose cold
// partitions match the group's digests — unless emptyRestart reboots the
// crashed replica empty, so that the whole state is transferred.
func e12Stores(prefill, payload int, emptyRestart bool) func(int) pbft.Application {
	coldValue := string(make([]byte, payload))
	coldKeys := stateSizeKeys("cold", prefill, func(b int) bool { return b >= stateSizeHotBuckets })
	booted := make(map[int]bool)
	return func(i int) pbft.Application {
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
		// Simulation-cost bounds: every store instance builds the cold
		// state in full at start and on every restart.
		check: func(v values) error {
			if p := v.max("prefills"); p > 1<<20 {
				return fmt.Errorf("prefill %d above %d", p, 1<<20)
			}
			if p := v.int("payload"); p > 4<<10 {
				return fmt.Errorf("payload %d above %d", p, 4<<10)
			}
			return nil
		},
		run: runE12,
	})
}

func runE12(rc RunContext, v values, res *metrics.Result) error {
	// Closed-loop hot-key workload, cycling a bounded working set.
	hotKeys := stateSizeKeys("hot", 64, func(b int) bool { return b < stateSizeHotBuckets })
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
				run := fmt.Sprintf("%s prefill=%d", name, prefill)
				phases := []faultPhase{{name: "healthy", end: e12Crash}, {name: "down", end: e12Restart}, {name: "recovered", end: e12End}}
				scenario := chaos.NewScenario("E12-state-size").Crash(e12Crash, 3).Restart(e12Restart, 3)
				var recovery sim.Time = -1
				d, trace, err := runFaultTimeline(deploySpec{kind: kind, seed: rc.Seed}, e12Stores(prefill, v.int("payload"), empty), rc.Model, scenario, phases, v.int("window"), v.int("payload"),
					func(sent int) string { return hotKeys[sent%len(hotKeys)] },
					// Recovery probe: from the restart instant, poll virtual
					// time until the restarted replica has adopted a
					// checkpoint and executed past the group's position at
					// restart. Polling on the deterministic loop keeps the
					// measurement byte-reproducible.
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
					return err
				}
				if recovery < 0 {
					return fmt.Errorf("bench: E12 replica never recovered (%s)", run)
				}
				for i := range phases {
					if phases[i].rec.Count() == 0 {
						return fmt.Errorf("bench: E12 phase %q committed nothing (%s)", phases[i].name, run)
					}
				}
				replicas := d.groups[0].Replicas
				if n := replicas[3].StateRejects(); n != 0 {
					return fmt.Errorf("bench: E12 rejected %d transfers on a fault-free network (%s)", n, run)
				}
				// Checkpoint cost after the first (base) checkpoint: mean
				// bytes serialized per interval and the modeled digest pause
				// they imply.
				var meanCp uint64
				var pause sim.Time
				if cpCount, cpBytes := replicas[0].CheckpointSteadyStats(); cpCount > 0 {
					meanCp = cpBytes / cpCount
					pause = auth.DigestCost(rc.Model.Crypto, int(meanCp))
				}
				x := float64(prefill)
				recoverS.Add(x, recovery.Micros())
				cpBytesS.Add(x, float64(meanCp))
				pauseS.Add(x, pause.Micros())
				xferS.Add(x, d.stats()["pbft.state_bytes_served"])
				stateS.Add(x, float64(len(d.groups[0].Apps[0].(*kvstore.Store).MarshalState())))
				tputS.Add(x, throughput(phases, 0))
				dipS.Add(x, throughput(phases, 2)/throughput(phases, 0))
				res.SetNote("trace["+run+"]", trace)
			}
		}
	}
	res.SetConfig("cluster", fmt.Sprintf("%d replicas, f=%d", pbft.DefaultConfig().N, pbft.DefaultConfig().F))
	res.SetConfig("modes", "partial=restart from the cold prefill (only hot partitions diverge), empty-restart=restart with an empty store (every partition diverges; baseline)")
	return nil
}
