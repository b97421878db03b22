package pbft

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// newTestCluster starts a group over kind, seed 1, and registers the given
// number of clients, ids 100 on, in Cluster.Clients.
func newTestCluster(t *testing.T, kind transport.Kind, cfg Config, clients int) *Cluster {
	t.Helper()
	c, err := NewCluster(kind, cfg, model.Default(), 1, func(i int) Application { return kvstore.New() })
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if err := c.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for range clients {
		if _, err := c.AddClient(); err != nil {
			t.Fatalf("AddClient: %v", err)
		}
	}
	return c
}

func kinds() []transport.Kind { return []transport.Kind{transport.KindTCP, transport.KindRDMA} }

// must fails the test on a non-nil err.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// diverged returns the first replica whose state differs from replica 0's,
// or -1.
func diverged(c *Cluster) int {
	return slices.IndexFunc(c.Apps, func(a Application) bool { return a.Snapshot() != c.Apps[0].Snapshot() })
}

func TestSingleRequestCommitsOnBothTransports(t *testing.T) {
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			c := newTestCluster(t, kind, DefaultConfig(), 1)
			cl := c.Clients[0]
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
		t.Run(string(kind), func(t *testing.T) {
			c := newTestCluster(t, kind, DefaultConfig(), 1)
			cl := c.Clients[0]
			// Record execution order on every replica.
			orders := make([][]string, c.Config.N)
			for i, rep := range c.Replicas {
				rep.OnExecute(func(seq uint64, batch []Request) {
					for _, req := range batch {
						orders[i] = append(orders[i], req.Key())
					}
				})
			}
			invokeN(t, c, cl, "k", 60)
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
			if i := diverged(c); i >= 0 {
				t.Fatalf("replica %d state digest diverged", i)
			}
		})
	}
}

func TestBatchingGroupsRequests(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 10
	h := newStepCluster(t, transport.KindTCP, cfg)
	var batches []int
	h.Replicas[0].OnExecute(func(seq uint64, batch []Request) {
		batches = append(batches, len(batch))
	})
	for ts := uint64(1); ts <= 30; ts++ {
		h.submit(ts, 0, 1, 2, 3)
	}
	h.drain(everything)
	total := 0
	multi := false
	for _, b := range batches {
		total += b
		if b > 1 {
			multi = true
		}
	}
	if total != 30 {
		h.fatalf("executed %d requests, want 30", total)
	}
	if !multi {
		h.fatalf("no batching observed: %v", batches)
	}
}

func TestCheckpointGarbageCollectsLog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 1
	cfg.CheckpointEvery = 10
	cfg.LogWindow = 64
	h := newStepCluster(t, transport.KindTCP, cfg)
	const n = 35
	for ts := uint64(1); ts <= n; ts++ {
		h.submit(ts, 0, 1, 2, 3)
	}
	h.drain(everything)
	for i, rep := range h.Replicas {
		if rep.Executed() != n {
			h.fatalf("replica %d executed %d, want %d", i, rep.Executed(), n)
		}
		if rep.Stable() < 30 {
			h.fatalf("replica %d stable checkpoint %d, want >= 30", i, rep.Stable())
		}
		if live := liveSlots(rep); live > int(cfg.CheckpointEvery) {
			h.fatalf("replica %d log holds %d slots after GC", i, live)
		}
	}
}

// TestExactlyOnceReplayedRequest: the identical request (same client,
// same timestamp) replayed to every replica after it executed is answered
// from the reply cache and not executed again.
func TestExactlyOnceReplayedRequest(t *testing.T) {
	h := newStepCluster(t, transport.KindTCP, DefaultConfig())
	for range 2 {
		h.submit(1, 0, 1, 2, 3)
		h.drain(everything)
	}
	if got := h.answers(1); !h.completed(1) || !slices.Equal(got, []int{0, 0, 1, 1, 2, 2, 3, 3}) {
		h.fatalf("the request and its replay were answered by %v, want every replica twice, F+1 matching", got)
	}
	for i, app := range h.Apps {
		// The op must have been executed exactly once per replica.
		if app.(*kvstore.Store).Applied() != 1 {
			h.fatalf("replica %d applied %d ops, want 1 (replay executed)", i, app.(*kvstore.Store).Applied())
		}
	}
}

// TestCrashedBackupDoesNotBlockProgress: with backup 3 crashed — nothing
// reaches it — the other three replicas still commit every request.
func TestCrashedBackupDoesNotBlockProgress(t *testing.T) {
	h := newStepCluster(t, transport.KindRDMA, DefaultConfig())
	for ts := uint64(1); ts <= 10; ts++ {
		h.submit(ts, 0, 1, 2)
	}
	h.drain(func(e envelope) bool { return e.to != 3 })
	for ts := uint64(1); ts <= 10; ts++ {
		if got := h.answers(ts); !h.completed(ts) {
			h.fatalf("request %d answered by %v with one crashed backup, want F+1 matching", ts, got)
		}
	}
}

// TestCrashedLeaderTriggersViewChange: a request reaches the backups of a
// crashed leader — nothing reaches it, and its timer never fires — and
// their progress timers install view 1, which executes the request.
func TestCrashedLeaderTriggersViewChange(t *testing.T) {
	h := newStepCluster(t, transport.KindTCP, DefaultConfig())
	h.submit(1, 1, 2, 3)
	for i := 1; i < 4; i++ {
		h.fire(i)
	}
	h.drain(func(e envelope) bool { return e.to != 0 })
	if got := h.answers(1); !h.completed(1) {
		h.fatalf("the request was answered by replicas %v after the leader crash, want F+1 matching", got)
	}
	for i := 1; i < 4; i++ {
		if v := h.Replicas[i].View(); v != 1 {
			h.fatalf("replica %d in view %d after the leader crash, want 1", i, v)
		}
	}
	// The new leader is replica 1 (view 1).
	if v, ok := h.Apps[1].(*kvstore.Store).Get("k"); !ok || v != "v" {
		h.fatalf("state not applied in the new view")
	}
}

// TestEquivocatingLeaderIsReplaced: leader 0 sends the odd-numbered
// backups a proposal no copy of theirs matches, so no quorum prepares; the
// backups' progress timers replace it, and all correct replicas agree.
func TestEquivocatingLeaderIsReplaced(t *testing.T) {
	h := newStepCluster(t, transport.KindTCP, DefaultConfig())
	h.byzantine[0] = equivocating(h.Replicas[0])
	h.submit(1, 0, 1, 2, 3)
	h.drain(everything)
	for i := 1; i < 4; i++ {
		h.fire(i)
	}
	h.drain(everything)
	if got := h.answers(1); !h.completed(1) {
		h.fatalf("request never executed under equivocating leader (answered by %v)", got)
	}
	// It executed because the correct replicas replaced the leader.
	for i := 1; i < 4; i++ {
		if v := h.Replicas[i].View(); v == 0 {
			h.fatalf("replica %d is still in view 0: the equivocating leader was never replaced", i)
		}
		// Safety: all correct replicas agree on the final state.
		if h.Apps[i].Snapshot() != h.Apps[1].Snapshot() {
			h.fatalf("replica %d diverged under equivocation", i)
		}
	}
}

// TestCorruptMACsAreDropped: replica 2 sends garbage MACs: its messages
// must be ignored, but the remaining 3 replicas still form quorums (N=4,
// F=1).
func TestCorruptMACsAreDropped(t *testing.T) {
	h := newStepCluster(t, transport.KindTCP, DefaultConfig())
	h.byzantine[2] = corruptMACs(h.Replicas[2])
	for ts := uint64(1); ts <= 5; ts++ {
		h.submit(ts, 0, 1, 2, 3)
	}
	h.drain(everything)
	for ts := uint64(1); ts <= 5; ts++ {
		if got := h.answers(ts); !h.completed(ts) {
			h.fatalf("request %d answered by %v with one MAC-corrupting replica, want F+1 matching", ts, got)
		}
	}
	for _, i := range []int{0, 1, 3} {
		r := h.Replicas[i]
		for seq := r.stable + 1; seq <= r.executed; seq++ {
			if s := r.lookup(seq); s != nil && (s.prepares[2].cast || s.commits[2].cast) {
				h.errorf("replica %d counted a vote from replica 2 at sequence %d", i, seq)
			}
		}
	}
}

func TestMultipleClients(t *testing.T) {
	c := newTestCluster(t, transport.KindRDMA, DefaultConfig(), 3)
	clients := c.Clients
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
	if i := diverged(c); i >= 0 {
		t.Fatalf("replica %d diverged", i)
	}
}

func TestLargerClusterN7F2(t *testing.T) {
	cfg := DefaultConfig()
	cfg.N, cfg.F = 7, 2
	h := newStepCluster(t, transport.KindTCP, cfg)
	// Replicas 5 and 6 crashed — the most tolerated: nothing reaches them.
	for ts := uint64(1); ts <= 6; ts++ {
		h.submit(ts, 0, 1, 2, 3, 4)
	}
	h.drain(func(e envelope) bool { return e.to < 5 })
	for ts := uint64(1); ts <= 6; ts++ {
		if got := h.answers(ts); !h.completed(ts) {
			h.fatalf("request %d answered by %v with N=7 F=2 and two crashes, want F+1 matching", ts, got)
		}
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
		c := newTestCluster(t, transport.KindRDMA, DefaultConfig(), 1)
		cl := c.Clients[0]
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
