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

func invokeN(t *testing.T, c *Cluster, cl *Client, prefix string, n int) {
	t.Helper()
	done := 0
	c.Loop.Post(func() {
		for k := 0; k < n; k++ {
			cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("%s%03d", prefix, k), "v"), func([]byte) { done++ })
		}
	})
	c.Loop.Run()
	if done != n {
		t.Fatalf("completed %d of %d %q requests", done, n, prefix)
	}
}

// TestStateTransferRoundTrip crashes a backup, advances the group past
// several checkpoints, restarts it and verifies the newcomer fetches the
// stable checkpoint, verifies it against the certified digest, and
// converges to the group's state — on both transport backends.
func TestStateTransferRoundTrip(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindTCP, transport.KindRDMA} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			c := newTestCluster(t, kind, transferConfig())
			cl, err := c.AddClient()
			if err != nil {
				t.Fatal(err)
			}
			c.Crash(3)
			invokeN(t, c, cl, "down", 20) // 10 seqs, stable reaches 8
			if c.Replicas[0].Stable() < 8 {
				t.Fatalf("stable = %d before restart, want >= 8", c.Replicas[0].Stable())
			}
			if err := c.Restart(3); err != nil {
				t.Fatal(err)
			}
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
			d0 := c.Apps[0].Snapshot()
			for i := 1; i < 4; i++ {
				if c.Apps[i].Snapshot() != d0 {
					t.Fatalf("replica %d state diverged after transfer", i)
				}
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
	c := newTestCluster(t, transport.KindTCP, transferConfig())
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	// Stop replica 3 outright, run the group ahead, then restart: the
	// fresh instance receives live checkpoint certificates and must
	// catch up without any further crash.
	c.Crash(3)
	invokeN(t, c, cl, "a", 24)
	if err := c.Restart(3); err != nil {
		t.Fatal(err)
	}
	invokeN(t, c, cl, "b", 24)
	c.Loop.RunUntil(c.Loop.Now() + 200*sim.Millisecond)
	if c.Replicas[3].StateTransfers() == 0 {
		t.Fatal("lagging replica never fetched state")
	}
	if got, want := c.Replicas[3].Executed(), c.Replicas[0].Executed(); got != want {
		t.Fatalf("lagging replica executed %d, group %d", got, want)
	}
}

// TestRestartBeforeFirstCheckpointDrains restarts a replica before the
// group has any stable checkpoint: the state-transfer probe goes
// unanswered and must NOT re-arm retries forever — the loop has to
// drain — and the replica must still recover via live certificates once
// checkpoints exist.
func TestRestartBeforeFirstCheckpointDrains(t *testing.T) {
	c := newTestCluster(t, transport.KindTCP, transferConfig())
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	c.Crash(3)
	if err := c.Restart(3); err != nil {
		t.Fatal(err)
	}
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
	for _, kind := range []transport.Kind{transport.KindTCP, transport.KindRDMA} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := transferConfig()
			cfg.BatchSize = 4
			cfg.CheckpointEvery = 8
			// Bulk writes take real wire time; keep request timers from
			// demanding view changes mid-flood.
			cfg.ViewTimeout = 400 * sim.Millisecond
			c := newTestCluster(t, kind, cfg)
			cl, err := c.AddClient()
			if err != nil {
				t.Fatal(err)
			}
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
			if err := c.Restart(3); err != nil {
				t.Fatal(err)
			}
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
			d0 := c.Apps[0].Snapshot()
			for i := 1; i < 4; i++ {
				if c.Apps[i].Snapshot() != d0 {
					t.Fatalf("replica %d state diverged after chunked transfer", i)
				}
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
	c := newTestCluster(t, transport.KindTCP, transferConfig())
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
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
	if err := c.Restart(3); err != nil {
		t.Fatal(err)
	}
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
// over the failure variants.
func TestCascadingViewChanges(t *testing.T) {
	cases := []struct {
		name     string
		n, f     int
		setup    func(c *Cluster)
		minView  uint64
		liveFrom int // replicas [liveFrom, n) participate at the end
	}{
		{
			// Leaders of views 0 and 1 both crash before any request:
			// N=7/F=2 keeps a 2F+1 quorum among the survivors, which
			// must cascade to view 2.
			name: "two-crashed-leaders-n7", n: 7, f: 2,
			setup:    func(c *Cluster) { c.Crash(0); c.Crash(1) },
			minView:  2,
			liveFrom: 2,
		},
		{
			// The view-0 leader crashes and the view-1 leader mutes its
			// NEW-VIEW: replicas waiting for the installation must time
			// out and escalate to view 2.
			name: "muted-new-view-n4", n: 4, f: 1,
			setup: func(c *Cluster) {
				c.Crash(0)
				c.Replicas[1].SetOutbox(muted(c.Replicas[1], MsgNewView))
			},
			minView:  2,
			liveFrom: 1,
		},
		{
			// Views 1 and 2 both fail (a crashed and a NEW-VIEW-muting
			// leader): the wait for view 2 is the doubled one, and it
			// has to run out before view 3 is demanded.
			name: "crashed-then-muted-n7", n: 7, f: 2,
			setup: func(c *Cluster) {
				c.Crash(0)
				c.Crash(1)
				c.Replicas[2].SetOutbox(muted(c.Replicas[2], MsgNewView))
			},
			minView:  3,
			liveFrom: 2,
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := transferConfig()
			cfg.N, cfg.F = tc.n, tc.f
			c := newTestCluster(t, transport.KindTCP, cfg)
			cl, err := c.AddClient()
			if err != nil {
				t.Fatal(err)
			}
			tc.setup(c)
			// When the last replica heard each view demanded by the one
			// before it (both are correct in every variant).
			demandedAt := make(map[uint64]sim.Time)
			tapViewChanges(c, func(to int, vc ViewChange) {
				if _, seen := demandedAt[vc.NewView]; to == tc.n-1 && int(vc.Replica) == tc.n-2 && !seen {
					demandedAt[vc.NewView] = c.Loop.Now()
				}
			})
			done := 0
			c.Loop.Post(func() {
				cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, "cascade", "1"), func([]byte) { done++ })
			})
			c.Loop.Run()
			if done != 1 {
				t.Fatalf("request never committed across cascading view changes")
			}
			// The k-th NEW-VIEW wait is 2^(k-1) ViewTimeouts, give or take
			// the moment it takes 2F+1 VIEW-CHANGEs to get around.
			for v, wait := uint64(1), cfg.ViewTimeout; v < tc.minView; v, wait = v+1, 2*wait {
				got := demandedAt[v+1] - demandedAt[v]
				if got < wait || got > wait+sim.Millisecond {
					t.Errorf("view %d was demanded %v after view %d, want %v (+ < 1ms)", v+1, got, v, wait)
				}
			}
			for i := tc.liveFrom; i < tc.n; i++ {
				if v := c.Replicas[i].View(); v < tc.minView {
					t.Errorf("replica %d in view %d, want >= %d", i, v, tc.minView)
				}
				if v, ok := c.Apps[i].(*kvstore.Store).Get("cascade"); !ok || v != "1" {
					t.Errorf("replica %d missing committed state", i)
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
	c := newTestCluster(t, transport.KindTCP, cfg)
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	const n = 40 // five full windows
	invokeN(t, c, cl, "w", n)
	for i, rep := range c.Replicas {
		if rep.Executed() != n {
			t.Fatalf("replica %d executed %d, want %d", i, rep.Executed(), n)
		}
		if rep.Stable() < uint64(n)-cfg.CheckpointEvery {
			t.Fatalf("replica %d stable %d, want >= %d", i, rep.Stable(), uint64(n)-cfg.CheckpointEvery)
		}
		if live := liveSlots(rep); live > int(cfg.CheckpointEvery) {
			t.Fatalf("replica %d log holds %d slots, want <= %d", i, live, cfg.CheckpointEvery)
		}
	}
}
