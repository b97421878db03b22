package pbft

import (
	"bytes"
	"fmt"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// transferConfig checkpoints frequently so state transfer engages within
// short workloads.
func transferConfig() Config {
	cfg := DefaultConfig()
	cfg.BatchSize = 2
	cfg.CheckpointEvery = 4
	cfg.LogWindow = 64
	return cfg
}

// invokeN commits puts to prefix000 ... through the client, n of them.
func invokeN(t *testing.T, c *Cluster, cl *Client, prefix string, n int) {
	t.Helper()
	keys := make([]string, n)
	for k := range keys {
		keys[k] = fmt.Sprintf("%s%03d", prefix, k)
	}
	invokeKeys(t, c, cl, keys)
}

// TestStateTransferRoundTrip crashes a backup, advances the group past
// several checkpoints, restarts it and verifies the newcomer fetches the
// stable checkpoint, verifies it against the certified digest, and
// converges to the group's state — on both transport backends.
func TestStateTransferRoundTrip(t *testing.T) {
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			c := newTestCluster(t, kind, transferConfig(), 1)
			cl := c.Clients[0]
			c.Crash(3)
			invokeN(t, c, cl, "down", 20) // 10 seqs, stable reaches 8
			if c.Replicas[0].Stable() < 8 {
				t.Fatalf("stable = %d before restart, want >= 8", c.Replicas[0].Stable())
			}
			must(t, c.Restart(3))
			c.Loop.Run() // let the state transfer complete
			invokeN(t, c, cl, "up", 10)
			c.Loop.RunUntil(c.Loop.Now() + 200*sim.Millisecond)

			rep := c.Replicas[3]
			if rep.StateTransfers() == 0 {
				t.Fatal("restarted replica completed no state transfer")
			}
			if rep.Executed() != c.Replicas[0].Executed() {
				t.Fatalf("restarted replica executed %d, group executed %d",
					rep.Executed(), c.Replicas[0].Executed())
			}
			if i := diverged(c); i >= 0 {
				t.Fatalf("replica %d state diverged after transfer", i)
			}
			// The transferred store contents are readable.
			if v, ok := c.Apps[3].(*kvstore.Store).Get("down000"); !ok || v != "v" {
				t.Fatal("transferred state missing pre-crash key")
			}
		})
	}
}

// TestStateTransferLaggingReplica verifies in-protocol lag detection
// against a moving head: a restarted replica whose first transfer lands
// behind ongoing traffic must keep catching up via the live checkpoint
// certificates recordCheckpoint assembles, without further restarts.
func TestStateTransferLaggingReplica(t *testing.T) {
	h := newStepCluster(t, transport.KindTCP, transferConfig())
	// Stop replica 3 outright, run the group ahead, then restart: the fresh
	// instance adopts the group's checkpoint, falls behind again — the
	// group runs on while nothing reaches it — and must catch up through
	// the live checkpoint certificates of what comes after, without any
	// further crash.
	h.Crash(3)
	for ts := uint64(1); ts <= 24; ts++ {
		h.submit(ts, 0, 1, 2)
	}
	h.drain(everything)
	must(t, h.Restart(3))
	h.drain(everything)
	for ts := uint64(25); ts <= 48; ts++ {
		h.submit(ts, 0, 1, 2)
	}
	h.drain(func(e envelope) bool { return e.to != 3 })
	behind := h.sent
	for ts := uint64(49); ts <= 56; ts++ {
		h.submit(ts, 0, 1, 2, 3)
	}
	h.drain(func(e envelope) bool { return e.to != 3 || e.n >= behind })
	if h.Replicas[3].StateTransfers() == 0 {
		h.fatalf("lagging replica never fetched state")
	}
	if got, want := h.Replicas[3].Executed(), h.Replicas[0].Executed(); got != want {
		h.fatalf("lagging replica executed %d, group %d", got, want)
	}
}

// TestRestartBeforeFirstCheckpointDrains restarts a replica before the
// group has any stable checkpoint: the state-transfer probe goes
// unanswered and must NOT re-arm retries forever — the loop has to
// drain — and the replica must still recover via live certificates once
// checkpoints exist.
func TestRestartBeforeFirstCheckpointDrains(t *testing.T) {
	c := newTestCluster(t, transport.KindTCP, transferConfig(), 1)
	cl := c.Clients[0]
	c.Crash(3)
	must(t, c.Restart(3))
	c.Loop.Run() // must terminate: no checkpoint exists, no retry loop
	if c.Replicas[3].StateTransfers() != 0 {
		t.Fatalf("nothing to transfer yet, got %d transfers", c.Replicas[3].StateTransfers())
	}
	invokeN(t, c, cl, "late", 24) // now checkpoints form; certificates drive catch-up
	c.Loop.RunUntil(c.Loop.Now() + 200*sim.Millisecond)
	if got, want := c.Replicas[3].Executed(), c.Replicas[0].Executed(); got != want {
		t.Fatalf("replica 3 executed %d, group %d", got, want)
	}
}

// TestStateTransferLargeSnapshot is the regression test for the ROADMAP
// item msgnet closes: a kvstore snapshot far above the transport's
// MaxMessage (≈1.1 MB vs the 256 KB frame limit) must still transfer
// after Crash/Restart — it crosses as per-partition StateParts on msgnet's
// bulk class — on both backends.
func TestStateTransferLargeSnapshot(t *testing.T) {
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := transferConfig()
			cfg.BatchSize = 4
			cfg.CheckpointEvery = 8
			// Bulk writes take real wire time; keep request timers from
			// demanding view changes mid-flood.
			cfg.ViewTimeout = 400 * sim.Millisecond
			c := newTestCluster(t, kind, cfg, 1)
			cl := c.Clients[0]
			c.Crash(3)
			// 36 distinct 32 KB values ≈ 1.15 MB of serialized store,
			// submitted with a bounded window (closed loop) like a real
			// client.
			const writes = 36
			value := string(bytes.Repeat([]byte("v"), 32<<10))
			done, sent := 0, 0
			var sendOne func()
			sendOne = func() {
				if sent >= writes {
					return
				}
				k := sent
				sent++
				cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("big%03d", k), value), func([]byte) {
					done++
					sendOne()
				})
			}
			c.Loop.Post(func() {
				for i := 0; i < 8; i++ {
					sendOne()
				}
			})
			c.Loop.Run()
			if done != writes {
				t.Fatalf("committed %d of %d bulk writes", done, writes)
			}
			snapshot := c.Apps[0].(*kvstore.Store).MarshalState()
			if maxMsg := transport.DefaultOptions().MaxMessage; len(snapshot) <= maxMsg {
				t.Fatalf("snapshot %d bytes does not exceed MaxMessage %d — test lost its point", len(snapshot), maxMsg)
			}
			must(t, c.Restart(3))
			c.Loop.Run() // chunked transfer completes
			// Enough post-restart writes to cross the next checkpoint
			// boundary: the restarted replica adopts the previous stable
			// point and catches the head through the live certificate,
			// like TestStateTransferLaggingReplica.
			invokeN(t, c, cl, "post", 28)
			c.Loop.RunUntil(c.Loop.Now() + 200*sim.Millisecond)
			rep := c.Replicas[3]
			if rep.StateTransfers() == 0 {
				t.Fatal("restarted replica completed no state transfer")
			}
			if rep.Executed() != c.Replicas[0].Executed() {
				t.Fatalf("restarted replica executed %d, group executed %d", rep.Executed(), c.Replicas[0].Executed())
			}
			if i := diverged(c); i >= 0 {
				t.Fatalf("replica %d state diverged after chunked transfer", i)
			}
			if v, ok := c.Apps[3].(*kvstore.Store).Get("big000"); !ok || v != value {
				t.Fatal("transferred state missing or corrupted a bulk key")
			}
			if n := *c.Replicas[3].sendFaults; n != 0 {
				t.Errorf("restarted replica surfaced %d send faults on a healthy network", n)
			}
		})
	}
}

// TestRestartRedialsDeadPeers kills a crashed replica's outbound
// connections before Restart: the new lifecycle API must re-dial them
// through the mesh (instead of silently leaving the replica half-wired)
// and record zero attach errors, and the replica must still catch up.
func TestRestartRedialsDeadPeers(t *testing.T) {
	c := newTestCluster(t, transport.KindTCP, transferConfig(), 1)
	cl := c.Clients[0]
	c.Crash(3)
	invokeN(t, c, cl, "pre", 20)
	c.Loop.Post(func() {
		for j, p := range c.peerLinks[3] {
			if j != 3 && p != nil {
				p.Close()
			}
		}
	})
	c.Loop.Run()
	must(t, c.Restart(3))
	c.Loop.Run() // re-dials and state transfer complete
	if err := c.AttachErr(); err != nil {
		t.Fatalf("re-attach errors: %v", err)
	}
	for j, p := range c.peerLinks[3] {
		if j == 3 {
			continue
		}
		if p == nil || p.Closed() {
			t.Fatalf("outbound peer 3->%d not re-dialed", j)
		}
	}
	invokeN(t, c, cl, "post", 10)
	c.Loop.RunUntil(c.Loop.Now() + 200*sim.Millisecond)
	if got, want := c.Replicas[3].Executed(), c.Replicas[0].Executed(); got != want {
		t.Fatalf("restarted replica executed %d, group %d", got, want)
	}
}

// TestCascadingViewChanges exercises the NEW-VIEW wait: when the leaders
// of consecutive views fail, replicas must keep escalating until a live
// leader installs a view — waiting one ViewTimeout for the first NEW-VIEW
// and twice as long for each next one (Castro & Liskov §4.5.2), so a slow
// but correct leader is eventually given the time it needs. Table-driven
// over the failure variants; a crashed replica is one nothing reaches and
// whose timer never fires.
func TestCascadingViewChanges(t *testing.T) {
	cases := []struct {
		name    string
		n, f    int
		crashed int // replicas [0, crashed) are crashed
		muting  int // this replica never sends its NEW-VIEW (0: none)
		minView uint64
	}{
		// Leaders of views 0 and 1 both crash before any request: N=7/F=2
		// keeps a 2F+1 quorum among the survivors, which must cascade to
		// view 2.
		{name: "two-crashed-leaders-n7", n: 7, f: 2, crashed: 2, minView: 2},
		// The view-0 leader crashes and the view-1 leader mutes its
		// NEW-VIEW: replicas waiting for the installation must time out and
		// escalate to view 2.
		{name: "muted-new-view-n4", n: 4, f: 1, crashed: 1, muting: 1, minView: 2},
		// Views 1 and 2 both fail (a crashed and a NEW-VIEW-muting leader):
		// the wait for view 2 is the doubled one, and it has to run out
		// before view 3 is demanded.
		{name: "crashed-then-muted-n7", n: 7, f: 2, crashed: 2, muting: 2, minView: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := transferConfig()
			cfg.N, cfg.F = tc.n, tc.f
			h := newStepCluster(t, transport.KindTCP, cfg)
			if tc.muting > 0 {
				h.byzantine[tc.muting] = muted(h.Replicas[tc.muting], MsgNewView)
			}
			var live []int
			for i := tc.crashed; i < tc.n; i++ {
				live = append(live, i)
			}
			h.submit(1, live...)
			demandedAt := make(map[uint64]sim.Time) // when the last replica demanded each view
			for round := 0; !h.completed(1) && round < 4; round++ {
				for _, i := range live {
					if r := h.Replicas[i]; r.progress.Pending() {
						v := r.demanded + 1
						demandedAt[v] = h.fire(i)
					}
				}
				h.drain(func(e envelope) bool { return e.to >= tc.crashed })
			}
			if !h.completed(1) {
				h.fatalf("request never committed across cascading view changes")
			}
			// The k-th NEW-VIEW wait is 2^(k-1) ViewTimeouts.
			for v, wait := uint64(1), cfg.ViewTimeout; v < tc.minView; v, wait = v+1, 2*wait {
				if got := demandedAt[v+1] - demandedAt[v]; got != wait {
					h.errorf("view %d was demanded %v after view %d, want %v", v+1, got, v, wait)
				}
			}
			for _, i := range live {
				if v := h.Replicas[i].View(); v < tc.minView {
					h.errorf("replica %d in view %d, want >= %d", i, v, tc.minView)
				}
				if v, ok := h.Apps[i].(*kvstore.Store).Get("k"); !ok || v != "v" {
					h.errorf("replica %d missing committed state", i)
				}
			}
		})
	}
}

// TestCheckpointGCAtWindowBoundary runs with the tightest legal window
// (LogWindow == CheckpointEvery): the leader hits the high watermark
// every interval and may only proceed once the checkpoint advances the
// stable point, exercising the stall-and-resume path and log GC.
func TestCheckpointGCAtWindowBoundary(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 1
	cfg.CheckpointEvery = 8
	cfg.LogWindow = 8 // == CheckpointEvery: proposals stall at each boundary
	h := newStepCluster(t, transport.KindTCP, cfg)
	const n = 40 // five full windows
	for ts := uint64(1); ts <= n; ts++ {
		h.submit(ts, 0, 1, 2, 3)
	}
	h.drain(everything)
	for i, rep := range h.Replicas {
		if rep.Executed() != n {
			h.fatalf("replica %d executed %d, want %d", i, rep.Executed(), n)
		}
		if rep.Stable() < uint64(n)-cfg.CheckpointEvery {
			h.fatalf("replica %d stable %d, want >= %d", i, rep.Stable(), uint64(n)-cfg.CheckpointEvery)
		}
		if live := liveSlots(rep); live > int(cfg.CheckpointEvery) {
			h.fatalf("replica %d log holds %d slots, want <= %d", i, live, cfg.CheckpointEvery)
		}
	}
}
