package chaos

import (
	"fmt"
	"strings"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/msgnet"
	"rubin/internal/pbft"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

func kinds() []transport.Kind { return []transport.Kind{transport.KindTCP, transport.KindRDMA} }

// chaosConfig uses small batches and frequent checkpoints so state
// transfer and recovery happen within short virtual windows.
func chaosConfig() pbft.Config {
	cfg := pbft.DefaultConfig()
	cfg.BatchSize = 2
	cfg.CheckpointEvery = 4
	cfg.LogWindow = 64
	return cfg
}

// timeline is the canonical fault script exercised by the suite:
// healthy, primary crash (view change), restart with state transfer,
// partition of the then-current leader (second view change), heal.
func timeline() *Scenario {
	return NewScenario("primary-crash-restart-partition-heal").
		Crash(100*sim.Millisecond, 0).
		Restart(500*sim.Millisecond, 0).
		Partition(900*sim.Millisecond, []int{1}, []int{0, 2, 3}).
		Heal(1400 * sim.Millisecond)
}

// phaseStarts are the workload injection offsets, one per phase, each
// shortly after the preceding fault event.
func phaseStarts() []sim.Time {
	return []sim.Time{0, 110 * sim.Millisecond, 510 * sim.Millisecond,
		910 * sim.Millisecond, 1410 * sim.Millisecond}
}

// phaseChecks are the virtual deadlines by which each phase's requests
// must have committed.
func phaseChecks() []sim.Time {
	return []sim.Time{100 * sim.Millisecond, 500 * sim.Millisecond, 900 * sim.Millisecond,
		1400 * sim.Millisecond, 1900 * sim.Millisecond}
}

const perPhase = 20

// result captures one full scenario run for assertions and determinism
// comparison.
type result struct {
	cluster *Cluster2
	metrics string
	done    []int
}

// Cluster2 bundles the cluster with the safety record kept across
// restarts.
type Cluster2 struct {
	*pbft.Cluster
	execDigests []map[uint64]auth.Digest
}

// runTimeline executes the canonical fault timeline against a 4-replica
// cluster, driving perPhase client requests per phase and asserting each
// phase's liveness deadline. The returned metrics string is the
// determinism witness: it records the scenario trace and every commit's
// virtual time, and must be byte-identical across runs with equal seeds.
func runTimeline(t *testing.T, kind transport.Kind, seed int64) result {
	t.Helper()
	c, err := pbft.NewCluster(kind, chaosConfig(), model.Default(), seed,
		func(i int) pbft.Application { return kvstore.New() })
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}

	// Safety record: batch digest per executed sequence per replica id,
	// surviving restarts via the OnRestart hook.
	cc := &Cluster2{Cluster: c, execDigests: make([]map[uint64]auth.Digest, c.Config.N)}
	hook := func(i int, rep *pbft.Replica) {
		rep.OnExecute(func(seq uint64, batch []pbft.Request) {
			if d, dup := cc.execDigests[i][seq]; dup && d != pbft.BatchDigest(batch) {
				t.Errorf("replica %d re-executed seq %d with a different batch", i, seq)
			}
			cc.execDigests[i][seq] = pbft.BatchDigest(batch)
		})
	}
	for i := range c.Replicas {
		cc.execDigests[i] = make(map[uint64]auth.Digest)
		hook(i, c.Replicas[i])
	}
	c.OnRestart = hook

	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	cl, err := c.AddClient()
	if err != nil {
		t.Fatalf("AddClient: %v", err)
	}

	sched := Apply(c, timeline())
	base := c.Loop.Now()

	var metrics strings.Builder
	starts, checks := phaseStarts(), phaseChecks()
	done := make([]int, len(starts))
	for p, start := range starts {
		p := p
		c.Loop.At(base+start, func() {
			for k := 0; k < perPhase; k++ {
				key := fmt.Sprintf("p%dk%02d", p, k)
				cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, key, "v"), func([]byte) {
					done[p]++
					fmt.Fprintf(&metrics, "commit %s t=%v\n", key, c.Loop.Now()-base)
				})
			}
		})
	}

	for p, check := range checks {
		c.Loop.RunUntil(base + check)
		if done[p] != perPhase {
			t.Fatalf("%v/%v phase %d: %d of %d requests committed by t=%v",
				kind, seed, p, done[p], perPhase, check)
		}
	}
	// Quiesce: let the healed and restarted replicas finish catching up.
	c.Loop.RunUntil(base + 2500*sim.Millisecond)

	metrics.WriteString(sched.TraceString())
	for i, rep := range c.Replicas {
		fmt.Fprintf(&metrics, "r%d view=%d executed=%d stable=%d transfers=%d digest=%x\n",
			i, rep.View(), rep.Executed(), rep.Stable(), rep.StateTransfers(),
			c.Apps[i].Snapshot())
	}
	fmt.Fprintf(&metrics, "end t=%v\n", c.Loop.Now()-base)
	if err := sched.Err(); err != nil {
		t.Fatalf("scenario errors: %v", err)
	}
	return result{cluster: cc, metrics: metrics.String(), done: done}
}

// TestScenarioSafetyAndLiveness drives the canonical timeline on both
// transport backends and asserts:
//   - liveness: every phase's client requests commit before its deadline
//     (so commits resume after primary crash, replica restart via state
//     transfer, and partition heal);
//   - safety: no two replicas execute divergent batches at any sequence,
//     and all four state machines converge to identical snapshots.
func TestScenarioSafetyAndLiveness(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			res := runTimeline(t, kind, 42)
			c := res.cluster

			// The crash of the view-0 leader must have forced a view
			// change, and the leader partition a second one.
			for i := 1; i < 4; i++ {
				if v := c.Replicas[i].View(); v < 2 {
					t.Errorf("replica %d still in view %d, want >= 2", i, v)
				}
			}
			// The restarted replica rejoined via state transfer.
			if c.Replicas[0].StateTransfers() == 0 {
				t.Error("restarted replica completed no state transfer")
			}

			// Safety: per-sequence agreement across all replicas.
			for seq, d0 := range c.execDigests[0] {
				for i := 1; i < 4; i++ {
					if d, ok := c.execDigests[i][seq]; ok && d != d0 {
						t.Errorf("divergent batch at seq %d between r0 and r%d", seq, i)
					}
				}
			}
			// Convergence: every replica caught up to the same state.
			d0 := c.Apps[0].Snapshot()
			e0 := c.Replicas[0].Executed()
			for i := 1; i < 4; i++ {
				if c.Apps[i].Snapshot() != d0 {
					t.Errorf("replica %d snapshot diverged after quiescence", i)
				}
				if e := c.Replicas[i].Executed(); e != e0 {
					t.Errorf("replica %d executed %d, replica 0 executed %d", i, e, e0)
				}
			}
			// All 100 requests committed exactly once at the client.
			total := 0
			for _, d := range res.done {
				total += d
			}
			if total != perPhase*len(res.done) {
				t.Errorf("client completed %d of %d requests", total, perPhase*len(res.done))
			}
		})
	}
}

// TestScenarioDeterministicTrace asserts the chaos acceptance criterion:
// the same scenario and seed yield a byte-identical virtual-time metrics
// trace — every commit instant, the fired-event trace, and the final
// replica states — across two independent runs, on both backends.
func TestScenarioDeterministicTrace(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			m1 := runTimeline(t, kind, 7).metrics
			m2 := runTimeline(t, kind, 7).metrics
			if m1 != m2 {
				t.Fatalf("metrics differ between identical runs:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", m1, m2)
			}
		})
	}
}

// TestScenarioDifferentSeedsDiverge is the sanity complement of the
// determinism test. The simulation only consumes randomness where a
// fault actually draws it, so the probe scenario enables link jitter
// (which samples the loop RNG per frame): different seeds must then
// produce different virtual-time traces, while the same seed reproduces
// its trace exactly.
func TestScenarioDifferentSeedsDiverge(t *testing.T) {
	run := func(seed int64) string {
		c, err := pbft.NewCluster(transport.KindTCP, chaosConfig(), model.Default(), seed,
			func(i int) pbft.Application { return kvstore.New() })
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
		cl, err := c.AddClient()
		if err != nil {
			t.Fatal(err)
		}
		s := NewScenario("jittery-links")
		for i := 0; i < 4; i++ {
			for j := i + 1; j < 4; j++ {
				s.At(0, fmt.Sprintf("jitter(r%d-r%d)", i, j), func(c *pbft.Cluster) error {
					c.ReplicaLink(i, j).SetFaults(fabric.LinkFaults{Jitter: 200 * sim.Microsecond})
					return nil
				})
			}
		}
		Apply(c, s)
		base := c.Loop.Now()
		var trace strings.Builder
		done := 0
		c.Loop.Post(func() {
			for k := 0; k < 20; k++ {
				k := k
				cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("k%02d", k), "v"), func([]byte) {
					done++
					fmt.Fprintf(&trace, "commit %d t=%v\n", k, c.Loop.Now()-base)
				})
			}
		})
		c.Loop.RunUntil(base + 500*sim.Millisecond)
		if done != 20 {
			t.Fatalf("seed %d: committed %d of 20 under jitter", seed, done)
		}
		return trace.String()
	}
	a1, a2, b := run(7), run(7), run(8)
	if a1 != a2 {
		t.Fatal("same seed did not reproduce its trace under jitter")
	}
	if a1 == b {
		t.Fatal("different seeds produced identical traces despite jitter")
	}
}

// TestByzantineAndDegradePrimitives exercises the remaining scenario
// primitives: a delayed-send Byzantine replica, link degradation with
// extra latency, and fault clearing — the cluster must keep committing
// throughout.
func TestByzantineAndDegradePrimitives(t *testing.T) {
	c, err := pbft.NewCluster(transport.KindRDMA, chaosConfig(), model.Default(), 3,
		func(i int) pbft.Application { return kvstore.New() })
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}

	degrade := func(f fabric.LinkFaults) Action {
		return func(c *pbft.Cluster) error {
			c.ReplicaLink(2, 3).SetFaults(f)
			return nil
		}
	}
	s := NewScenario("degraded-backup").
		Byzantine(0, 3, func(_ *msgnet.Peer, env []byte) ([]byte, sim.Time) { return env, 2 * sim.Millisecond }).
		At(0, "degrade(r2-r3)", degrade(fabric.LinkFaults{ExtraLatency: sim.Millisecond, Jitter: 500 * sim.Microsecond})).
		Byzantine(60*sim.Millisecond, 3, nil).
		At(60*sim.Millisecond, "clear(r2-r3)", degrade(fabric.LinkFaults{}))
	sched := Apply(c, s)

	base := c.Loop.Now()
	done := 0
	c.Loop.Post(func() {
		for k := 0; k < 30; k++ {
			cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("k%02d", k), "v"), func([]byte) { done++ })
		}
	})
	c.Loop.RunUntil(base + 200*sim.Millisecond)
	if done != 30 {
		t.Fatalf("committed %d of 30 under degradation", done)
	}
	if err := sched.Err(); err != nil {
		t.Fatal(err)
	}
	if len(sched.Trace()) != 4 {
		t.Fatalf("trace has %d events, want 4:\n%s", len(sched.Trace()), sched.TraceString())
	}
	d0 := c.Apps[0].Snapshot()
	for i := 1; i < 4; i++ {
		if c.Apps[i].Snapshot() != d0 {
			t.Fatalf("replica %d diverged", i)
		}
	}
}
