package shard

import (
	"fmt"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// newCOP builds and starts a COP group over cfg at the given seed.
func newCOP(t *testing.T, kind transport.Kind, cfg Config, seed int64) *Deployment {
	t.Helper()
	d, err := NewCOP(kind, cfg, model.Default(), seed)
	if err != nil {
		t.Fatalf("NewCOP: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return d
}

// addRouter adds a router to a started deployment.
func addRouter(t *testing.T, d *Deployment) *Router {
	t.Helper()
	r, err := d.AddRouter()
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestLeadershipIsSpreadAcrossInstances(t *testing.T) {
	d := newCOP(t, transport.KindTCP, defaultConfig(4), 1)
	leaders := map[uint32]bool{}
	for k, c := range d.Clusters {
		rep := c.Replicas[0]
		leader := rep.Leader(rep.View())
		leaders[leader] = true
		if want := uint32(k % d.Config.PBFT.N); leader != want {
			t.Fatalf("instance %d led by %d, want %d", k, leader, want)
		}
	}
	if len(leaders) != d.Config.Shards {
		t.Fatalf("only %d distinct leaders across %d instances", len(leaders), d.Config.Shards)
	}
}

func TestRequestsCommitAcrossInstances(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindTCP, transport.KindRDMA} {
		t.Run(string(kind), func(t *testing.T) {
			d := newCOP(t, kind, defaultConfig(4), 1)
			r := addRouter(t, d)
			const n = 40
			done := 0
			used := map[int]bool{}
			d.Loop.Post(func() {
				for i := 0; i < n; i++ {
					key := fmt.Sprintf("key-%03d", i)
					used[kvstore.PartitionKey(key, d.Config.Shards)] = true
					r.InvokeOp(kvstore.EncodeOp(kvstore.OpPut, key, "v"), func([]byte) { done++ })
				}
			})
			d.Loop.Run()
			if done != n {
				t.Fatalf("completed %d of %d", done, n)
			}
			if len(used) < 2 {
				t.Fatalf("routing degenerate: only %d instances used", len(used))
			}
			// Each instance's replicas converge to the same state.
			for k, c := range d.Clusters {
				for i := 1; i < len(c.Apps); i++ {
					if c.Apps[i].Snapshot() != c.Apps[0].Snapshot() {
						t.Fatalf("instance %d: replica %d state diverged", k, i)
					}
				}
			}
		})
	}
}

// TestInstancesCheckpointTheirOwnStores: each instance executes into a
// store of its own, so its checkpoints digest exactly the state its own
// sequence numbers produced and its replicas agree on them. A small log
// window with frequent checkpoints makes progress depend on every one of
// them turning stable: were the instances to share one store per node,
// each would checkpoint it at its own sequence numbers, the replicas'
// digests would differ, no checkpoint would turn stable, and the full
// window would force view change after view change. Every put completes,
// and every instance stays in its initial view with a stable point above 0.
func TestInstancesCheckpointTheirOwnStores(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		t.Run(string(kind), func(t *testing.T) {
			cfg := defaultConfig(4)
			cfg.PBFT.BatchSize, cfg.PBFT.LogWindow, cfg.PBFT.CheckpointEvery = 1, 16, 4
			d := newCOP(t, kind, cfg, 1)
			r := addRouter(t, d)
			const n = 256
			done := 0
			d.Loop.Post(func() {
				for i := 0; i < n; i++ {
					r.InvokeOp(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("key-%03d", i), "v"), func([]byte) { done++ })
				}
			})
			// A wedged group cycles through view changes for ever: bound
			// the run in virtual time and in events.
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("completed %d of %d puts: %v", done, n, p)
					}
				}()
				d.Loop.SetEventLimit(20_000_000)
				d.Loop.RunUntil(d.Loop.Now() + sim.Second)
			}()
			if done != n {
				t.Errorf("completed %d of %d puts", done, n)
			}
			for k, c := range d.Clusters {
				for i, rep := range c.Replicas {
					if rep.View() != uint64(k) || rep.Stable() == 0 {
						t.Errorf("instance %d replica %d: view %d, stable %d; want view %d, stable > 0", k, i, rep.View(), rep.Stable(), k)
					}
				}
			}
		})
	}
}

func TestSingleInstanceDegeneratesToPBFT(t *testing.T) {
	d := newCOP(t, transport.KindTCP, defaultConfig(1), 1)
	r := addRouter(t, d)
	done := 0
	d.Loop.Post(func() {
		for i := 0; i < 10; i++ {
			r.InvokeOp(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("s%d", i), "v"), func([]byte) { done++ })
		}
	})
	d.Loop.Run()
	if done != 10 {
		t.Fatalf("completed %d of 10", done)
	}
}

func TestCOPSpreadsLeaderLoad(t *testing.T) {
	// COP's claim (Behl et al.): parallelizing consensus instances
	// removes the single-leader bottleneck. At workloads that are
	// round-trip-bound rather than CPU-bound the end-to-end time is
	// similar, so we assert the mechanism directly: with K=1 the leader
	// node burns far more CPU than the others; with K=4 (one instance
	// led by each replica) the load is balanced — and throughput must
	// not collapse from the extra connections.
	const (
		clients    = 4
		perClient  = 60
		payloadLen = 2048
	)
	run := func(instances int) (elapsed float64, imbalance float64) {
		d := newCOP(t, transport.KindRDMA, defaultConfig(instances), 1)
		var rs []*Router
		for c := 0; c < clients; c++ {
			rs = append(rs, addRouter(t, d))
		}
		n := d.Config.PBFT.N
		// Snapshot CPU busy before the workload (setup costs excluded).
		before := make([]sim.Time, n)
		for i := range before {
			before[i] = d.Network.Node(fmt.Sprintf("r%d", i)).CPU.BusyTotal()
		}
		start := d.Loop.Now()
		var finish sim.Time
		done := 0
		d.Loop.Post(func() {
			for c, r := range rs {
				for i := 0; i < perClient; i++ {
					key := fmt.Sprintf("c%dw%04d", c, i)
					r.InvokeOp(kvstore.EncodeOp(kvstore.OpPut, key, string(make([]byte, payloadLen))), func([]byte) {
						done++
						finish = d.Loop.Now()
					})
				}
			}
		})
		d.Loop.Run()
		if done != clients*perClient {
			t.Fatalf("K=%d completed %d of %d", instances, done, clients*perClient)
		}
		var max, sum float64
		for i := range before {
			busy := float64(d.Network.Node(fmt.Sprintf("r%d", i)).CPU.BusyTotal() - before[i])
			sum += busy
			if busy > max {
				max = busy
			}
		}
		return (finish - start).Seconds(), max / (sum / float64(n))
	}
	t1, imb1 := run(1)
	t4, imb4 := run(4)
	if imb4 >= imb1 {
		t.Errorf("COP did not spread leader load: imbalance K=1 %.3f vs K=4 %.3f", imb1, imb4)
	}
	if imb4 > 1.25 {
		t.Errorf("K=4 load imbalance %.3f, want near-uniform (<= 1.25)", imb4)
	}
	if t4 > 1.5*t1 {
		t.Errorf("K=4 time %.6fs collapsed vs K=1 %.6fs", t4, t1)
	}
}

// TestInstancesServeOnTheirOwnPillars: COP instance k serves on pillar k of
// every host, a selector on the host's application thread k. Puts to keys
// instance 2 owns load thread 2 of every host more than any other.
func TestInstancesServeOnTheirOwnPillars(t *testing.T) {
	d := newCOP(t, transport.KindRDMA, defaultConfig(4), 1)
	r := addRouter(t, d)
	const target = 2
	hosts, instances := d.Clusters[0].Hosts, d.Config.Shards
	busy := func(i, k int) sim.Time { return hosts.Node(i).Thread(k).BusyTotal() }
	before := make([][]sim.Time, d.Config.PBFT.N)
	for i := range before {
		for k := 0; k < instances; k++ {
			before[i] = append(before[i], busy(i, k))
		}
	}
	value := string(make([]byte, 8<<10))
	d.Loop.Post(func() {
		for i := 0; i < 20; i++ {
			r.InvokeOp(kvstore.EncodeOp(kvstore.OpPut, keyOn(target, instances, fmt.Sprintf("p%04d.", i)), value), nil)
		}
	})
	d.Loop.Run()
	for i := range before {
		grew := make([]sim.Time, instances)
		for k := range grew {
			grew[k] = busy(i, k) - before[i][k]
		}
		for k := range grew {
			if k != target && grew[k] >= grew[target] {
				t.Errorf("host %d: application threads grew %v busy; want thread %d, instance %d's pillar, ahead of every other", i, grew, target, target)
				break
			}
		}
	}
}
