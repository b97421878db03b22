package pbft

import (
	"bytes"
	"fmt"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/msgnet"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

func newTestCluster(t *testing.T, kind transport.Kind, cfg Config) *Cluster {
	t.Helper()
	c, err := NewCluster(kind, cfg, model.Default(), 1, func(i int) Application { return kvstore.New() })
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	return c
}

func kinds() []transport.Kind { return []transport.Kind{transport.KindTCP, transport.KindRDMA} }

func TestSingleRequestCommitsOnBothTransports(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			c := newTestCluster(t, kind, DefaultConfig())
			cl, err := c.AddClient()
			if err != nil {
				t.Fatal(err)
			}
			var result []byte
			c.Loop.Post(func() {
				cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, "alpha", "1"), func(res []byte) {
					result = bytes.Clone(res) // lent until the callback returns
				})
			})
			c.Loop.Run()
			if string(result) != "OK" {
				t.Fatalf("result = %q, want OK", result)
			}
			for i, rep := range c.Replicas {
				if rep.Executed() != 1 {
					t.Fatalf("replica %d executed %d, want 1", i, rep.Executed())
				}
			}
			// All state machines agree.
			for i, app := range c.Apps {
				if v, ok := app.(*kvstore.Store).Get("alpha"); !ok || v != "1" {
					t.Fatalf("replica %d state diverged", i)
				}
			}
		})
	}
}

func TestManyRequestsTotalOrder(t *testing.T) {
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			c := newTestCluster(t, kind, DefaultConfig())
			cl, err := c.AddClient()
			if err != nil {
				t.Fatal(err)
			}
			// Record execution order on every replica.
			orders := make([][]string, c.Config.N)
			for i, rep := range c.Replicas {
				i := i
				rep.OnExecute(func(seq uint64, batch []Request) {
					for _, req := range batch {
						orders[i] = append(orders[i], req.Key())
					}
				})
			}
			const n = 60
			done := 0
			c.Loop.Post(func() {
				for k := 0; k < n; k++ {
					key := fmt.Sprintf("k%03d", k)
					cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, key, "v"), func([]byte) { done++ })
				}
			})
			c.Loop.Run()
			if done != n {
				t.Fatalf("completed %d of %d invocations", done, n)
			}
			for i := 1; i < c.Config.N; i++ {
				if len(orders[i]) != len(orders[0]) {
					t.Fatalf("replica %d executed %d requests, replica 0 executed %d", i, len(orders[i]), len(orders[0]))
				}
				for j := range orders[0] {
					if orders[i][j] != orders[0][j] {
						t.Fatalf("total order violated at %d: replica %d has %s, replica 0 has %s",
							j, i, orders[i][j], orders[0][j])
					}
				}
			}
			// Final states agree.
			d0 := c.Apps[0].Snapshot()
			for i := 1; i < c.Config.N; i++ {
				if c.Apps[i].Snapshot() != d0 {
					t.Fatalf("replica %d state digest diverged", i)
				}
			}
		})
	}
}

func TestBatchingGroupsRequests(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 10
	c := newTestCluster(t, transport.KindTCP, cfg)
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	var batches []int
	c.Replicas[0].OnExecute(func(seq uint64, batch []Request) {
		batches = append(batches, len(batch))
	})
	c.Loop.Post(func() {
		for k := 0; k < 30; k++ {
			cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("k%d", k), "v"), nil)
		}
	})
	c.Loop.Run()
	total := 0
	multi := false
	for _, b := range batches {
		total += b
		if b > 1 {
			multi = true
		}
	}
	if total != 30 {
		t.Fatalf("executed %d requests, want 30", total)
	}
	if !multi {
		t.Fatalf("no batching observed: %v", batches)
	}
}

func TestCheckpointGarbageCollectsLog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 1
	cfg.CheckpointEvery = 10
	cfg.LogWindow = 64
	c := newTestCluster(t, transport.KindTCP, cfg)
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	const n = 35
	c.Loop.Post(func() {
		for k := 0; k < n; k++ {
			cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("k%d", k), "v"), nil)
		}
	})
	c.Loop.Run()
	for i, rep := range c.Replicas {
		if rep.Executed() != n {
			t.Fatalf("replica %d executed %d, want %d", i, rep.Executed(), n)
		}
		if rep.Stable() < 30 {
			t.Fatalf("replica %d stable checkpoint %d, want >= 30", i, rep.Stable())
		}
		if live := liveSlots(rep); live > int(cfg.CheckpointEvery) {
			t.Fatalf("replica %d log holds %d slots after GC", i, live)
		}
	}
}

func TestExactlyOnceReplayedRequest(t *testing.T) {
	c := newTestCluster(t, transport.KindTCP, DefaultConfig())
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	results := 0
	c.Loop.Post(func() {
		cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, "once", "1"), func([]byte) { results++ })
	})
	c.Loop.Run()
	// Replay the identical request (same client, same timestamp).
	c.Loop.Post(func() {
		req := Request{Client: cl.ID(), Timestamp: 1, Op: kvstore.EncodeOp(kvstore.OpPut, "once", "1")}
		raw := Encode(req)
		for _, conn := range cl.conns {
			if err := conn.Send(msgnet.ClassControl, raw); err != nil {
				t.Errorf("replay send: %v", err)
			}
		}
	})
	c.Loop.Run()
	if results != 1 {
		t.Fatalf("client callback fired %d times", results)
	}
	for i, app := range c.Apps {
		// The op must have been executed exactly once per replica.
		if app.(*kvstore.Store).Applied() != 1 {
			t.Fatalf("replica %d applied %d ops, want 1 (replay executed)", i, app.(*kvstore.Store).Applied())
		}
	}
}

func TestCrashedBackupDoesNotBlockProgress(t *testing.T) {
	c := newTestCluster(t, transport.KindRDMA, DefaultConfig())
	c.Crash(3) // a non-leader replica
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	c.Loop.Post(func() {
		for k := 0; k < 10; k++ {
			cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("k%d", k), "v"), func([]byte) { done++ })
		}
	})
	c.Loop.Run()
	if done != 10 {
		t.Fatalf("completed %d of 10 with one crashed backup", done)
	}
}

func TestCrashedLeaderTriggersViewChange(t *testing.T) {
	cfg := DefaultConfig()
	c := newTestCluster(t, transport.KindTCP, cfg)
	c.Crash(0) // leader of view 0
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	newViews := make(map[int]uint64)
	for i, rep := range c.Replicas {
		i := i
		rep.OnViewChange(func(v uint64) { newViews[i] = v })
	}
	done := 0
	c.Loop.Post(func() {
		cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, "survive", "1"), func([]byte) { done++ })
	})
	// Give the view-change timers room to fire and the new view to form.
	c.Loop.Run()
	if done != 1 {
		t.Fatalf("request did not execute after leader crash (done=%d)", done)
	}
	for i := 1; i < 4; i++ {
		if c.Replicas[i].View() == 0 {
			t.Fatalf("replica %d still in view 0 after leader crash", i)
		}
	}
	if len(newViews) < 3 {
		t.Fatalf("only %d replicas installed a new view", len(newViews))
	}
	// The new leader is replica 1 (view 1).
	if v, ok := c.Apps[1].(*kvstore.Store).Get("survive"); !ok || v != "1" {
		t.Fatal("state not applied in new view")
	}
}

func TestEquivocatingLeaderIsReplaced(t *testing.T) {
	c := newTestCluster(t, transport.KindTCP, DefaultConfig())
	c.Replicas[0].SetOutbox(equivocating(c.Replicas[0]))
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	c.Loop.Post(func() {
		cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, "equi", "1"), func([]byte) { done++ })
	})
	c.Loop.Run()
	if done != 1 {
		t.Fatalf("request never executed under equivocating leader (done=%d)", done)
	}
	// It executed because the correct replicas replaced the leader.
	for i := 1; i < 4; i++ {
		if v := c.Replicas[i].View(); v == 0 {
			t.Fatalf("replica %d is still in view 0: the equivocating leader was never replaced", i)
		}
	}
	// Safety: all correct replicas agree on the final state.
	d1 := c.Apps[1].Snapshot()
	for i := 2; i < 4; i++ {
		if c.Apps[i].Snapshot() != d1 {
			t.Fatalf("replica %d diverged under equivocation", i)
		}
	}
}

func TestCorruptMACsAreDropped(t *testing.T) {
	c := newTestCluster(t, transport.KindTCP, DefaultConfig())
	// Replica 2 sends garbage MACs: its messages must be ignored, but
	// the remaining 3 replicas still form quorums (N=4, F=1).
	c.Replicas[2].SetOutbox(corruptMACs(c.Replicas[2]))
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	c.Loop.Post(func() {
		for k := 0; k < 5; k++ {
			cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("k%d", k), "v"), func([]byte) { done++ })
		}
	})
	c.Loop.Run()
	if done != 5 {
		t.Fatalf("completed %d of 5 with one MAC-corrupting replica", done)
	}
	for _, i := range []int{0, 1, 3} {
		r := c.Replicas[i]
		for seq := r.stable + 1; seq <= r.executed; seq++ {
			if s := r.lookup(seq); s != nil && (s.prepares[2].cast || s.commits[2].cast) {
				t.Errorf("replica %d counted a vote from replica 2 at sequence %d", i, seq)
			}
		}
	}
}

func TestMultipleClients(t *testing.T) {
	c := newTestCluster(t, transport.KindRDMA, DefaultConfig())
	var clients []*Client
	for i := 0; i < 3; i++ {
		cl, err := c.AddClient()
		if err != nil {
			t.Fatal(err)
		}
		clients = append(clients, cl)
	}
	done := 0
	c.Loop.Post(func() {
		for ci, cl := range clients {
			for k := 0; k < 8; k++ {
				cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("c%dk%d", ci, k), "v"), func([]byte) { done++ })
			}
		}
	})
	c.Loop.Run()
	if done != 24 {
		t.Fatalf("completed %d of 24 across clients", done)
	}
	d0 := c.Apps[0].Snapshot()
	for i := 1; i < 4; i++ {
		if c.Apps[i].Snapshot() != d0 {
			t.Fatalf("replica %d diverged", i)
		}
	}
}

func TestLargerClusterN7F2(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N, cfg.F = 7, 2
	c := newTestCluster(t, transport.KindTCP, cfg)
	// Crash two replicas — the maximum tolerated.
	c.Crash(5)
	c.Crash(6)
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	done := 0
	c.Loop.Post(func() {
		for k := 0; k < 6; k++ {
			cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("k%d", k), "v"), func([]byte) { done++ })
		}
	})
	c.Loop.Run()
	if done != 6 {
		t.Fatalf("completed %d of 6 with N=7 F=2 and two crashes", done)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := Config{N: 3, F: 1, BatchSize: 1, CheckpointEvery: 1, LogWindow: 1}
	if bad.Validate() == nil {
		t.Fatal("N=3 F=1 should be rejected (needs 3F+1)")
	}
	good := DefaultConfig()
	if good.Validate() != nil {
		t.Fatal("default config should validate")
	}
	if good.Quorum() != 3 {
		t.Fatalf("quorum = %d, want 3", good.Quorum())
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, sim.Time) {
		c, err := NewCluster(transport.KindRDMA, DefaultConfig(), model.Default(), 7,
			func(i int) Application { return kvstore.New() })
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
		c.Loop.Post(func() {
			for k := 0; k < 12; k++ {
				cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("k%d", k), "v"), nil)
			}
		})
		c.Loop.Run()
		return c.Replicas[0].Executed(), c.Loop.Now()
	}
	e1, t1 := run()
	e2, t2 := run()
	if e1 != e2 || t1 != t2 {
		t.Fatalf("nondeterministic: (%d,%v) vs (%d,%v)", e1, t1, e2, t2)
	}
}
