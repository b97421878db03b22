package pbft

import (
	"fmt"
	"slices"
	"testing"

	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// putLoad is the benchmark's open-loop shape with puts only: Poisson
// arrivals at rate per second for span, over 256 sequential users (an
// arrival behind a busy user queues, so an outage releases a burst) on
// the cluster's clients. run drives it to the end; a wedged group is stopped once
// budget has passed after the last arrival, so it fails instead of hanging.
type putLoad struct {
	*workload.Driver
	c    *Cluster
	base sim.Time // when the stream starts: adding clients takes virtual time
	span sim.Time
}

func newPutLoad(t *testing.T, c *Cluster, rate float64, span sim.Time) *putLoad {
	t.Helper()
	clients := c.Clients
	d, err := workload.New(c.Loop, workload.Config{
		Users: 256, Conns: len(clients), Ops: int(rate * span.Seconds()),
		Keys: workload.NewUniform(1024), Mix: workload.Mix{WritePct: 100},
		Arrival: workload.Poisson(rate), ValueSize: 128, Seed: 1,
	}, func(conn int, op []byte, done func([]byte)) string { return clients[conn].Invoke(op, done) })
	if err != nil {
		t.Fatal(err)
	}
	return &putLoad{Driver: d, c: c, base: c.Loop.Now(), span: span}
}

func (l *putLoad) run(t *testing.T, budget sim.Time) {
	t.Helper()
	l.c.Loop.At(l.base+l.span+budget, func() {
		for _, rep := range l.c.Replicas {
			rep.Stop()
		}
	})
	must(t, l.Run())
}

// longestGap is the longest interval between consecutive completions.
func (l *putLoad) longestGap() sim.Time {
	var gap sim.Time
	ops := l.History().Ops() // in completion order
	for i := 1; i < len(ops); i++ {
		if d := ops[i].Return - ops[i-1].Return; d > gap {
			gap = d
		}
	}
	return gap
}

// TestFaultScriptSweep runs the benchmark's leader crash + restart script
// at five time scales under a steady put stream, on both transports. One
// leader crash must cost exactly one view change and at most a quarter of
// ViewTimeout (the silence deadline, plus an agreement round) without
// service, whether the leader is back long after the backups' timers fired
// (× 1, × 2) or before (× 0.1, × 0.2 — where a restarted, log-less leader
// used to catch a cascade of stale request timers and wedge the group for
// good). The loop gets a virtual-time budget so a wedge fails instead of
// hanging.
func TestFaultScriptSweep(t *testing.T) {
	const (
		crashAt   = 150 * sim.Millisecond
		restartAt = 300 * sim.Millisecond
		tail      = 60 * sim.Millisecond // traffic after the restart
		budget    = sim.Second           // to drain after the last arrival
	)
	// The benchmark's rate on rdma-rubin; tcp-nio's knee is below it.
	rates := map[transport.Kind]float64{transport.KindRDMA: 30000, transport.KindTCP: 10000}
	for _, kind := range kinds() {
		for _, scale := range []float64{0.1, 0.2, 0.5, 1, 2} {
			t.Run(fmt.Sprintf("%s/x%g", kind, scale), func(t *testing.T) {
				cfg := DefaultConfig()
				c := newTestCluster(t, kind, cfg, 4)
				installs := make([]int, cfg.N)
				watch := func(i int, rep *Replica) { rep.OnViewChange(func(uint64) { installs[i]++ }) }
				for i, rep := range c.Replicas {
					watch(i, rep)
				}
				c.OnRestart = watch
				crash := sim.Time(scale * float64(crashAt))
				restart := sim.Time(scale * float64(restartAt))
				load := newPutLoad(t, c, rates[kind], restart+tail)
				c.Loop.At(load.base+crash, func() { c.Crash(0) })
				c.Loop.At(load.base+restart, func() {
					if err := c.Restart(0); err != nil {
						t.Error(err)
					}
				})
				load.run(t, budget) // fails unless every request was answered

				if gap, limit := load.longestGap(), cfg.ViewTimeout/4+5*sim.Millisecond; gap >= limit {
					t.Errorf("longest completion gap %v, want < %v", gap, limit)
				}
				for i, rep := range c.Replicas {
					if rep.View() != 1 {
						t.Errorf("replica %d ended in view %d, want 1", i, rep.View())
					}
					if installs[i] != 1 {
						t.Errorf("replica %d installed %d views, want 1", i, installs[i])
					}
					if rep.Executed() != c.Replicas[1].Executed() {
						t.Errorf("replica %d executed %d, replica 1 executed %d", i, rep.Executed(), c.Replicas[1].Executed())
					}
					if c.Apps[i].Snapshot() != c.Apps[1].Snapshot() {
						t.Errorf("replica %d state digest differs from replica 1", i)
					}
				}
			})
		}
	}
}

// TestCutOffBackupDemandsOneView cuts one backup off — nothing it sends or
// is sent is delivered — with a request outstanding, while the group runs
// two checkpoints ahead and 10 × ViewTimeout pass. Its progress timer fires
// once and it demands view+1 — and there it must stay: without 2F+1
// VIEW-CHANGEs no NEW-VIEW wait starts, so it neither climbs a view per
// timeout nor queues a VIEW-CHANGE (each carrying its prepared batches) per
// view toward peers it cannot reach. After the heal it rejoins the group's
// view.
func TestCutOffBackupDemandsOneView(t *testing.T) {
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.BatchSize, cfg.CheckpointEvery = 1, 4
			h := newStepCluster(t, kind, cfg)
			cut := h.Replicas[3]
			h.submit(1, 0, 1, 2, 3)
			h.fire(3)
			for ts := uint64(2); ts <= 9; ts++ {
				h.submit(ts, 0, 1, 2, 3)
				h.drain(func(e envelope) bool { return e.from != 3 && e.to != 3 })
			}
			h.settle(10 * cfg.ViewTimeout)
			if !cut.viewChanging || cut.demanded != 1 || cut.progress.Pending() {
				h.errorf("after 10 timeouts alone: viewChanging=%v demanded=%d timer armed=%v; want a lone, timerless demand for view 1",
					cut.viewChanging, cut.demanded, cut.progress.Pending())
			}
			// demands counts the VIEW-CHANGEs sent so far, all replica 3's
			// for view 1.
			demands := func() (n int) {
				for _, e := range slices.Concat(h.done, h.pending) {
					if vc, ok := e.msg().(ViewChange); ok && (vc.Replica != 3 || vc.NewView != 1) {
						h.errorf("replica %d demanded view %d: only replica 3 may demand, and only view 1", vc.Replica, vc.NewView)
					} else if ok {
						n++
					}
				}
				return n
			}
			if queued := demands(); queued != cfg.N-1 {
				h.errorf("replica 3 queued %d VIEW-CHANGEs while cut off, want one per peer", queued)
			}
			// The heal delivers what it queued; traffic to the next
			// checkpoint lets it catch up on what it skipped meanwhile.
			for ts := uint64(10); ts <= 12; ts++ {
				h.drain(everything)
				h.submit(ts, 0, 1, 2, 3)
			}
			h.drain(everything)
			demands()
			for i, rep := range h.Replicas {
				if rep.View() != 0 || rep.viewChanging {
					h.errorf("replica %d ended in view %d (viewChanging=%v), want settled in view 0", i, rep.View(), rep.viewChanging)
				}
				if rep.Executed() != h.Replicas[0].Executed() || h.Apps[i].Snapshot() != h.Apps[0].Snapshot() {
					h.errorf("replica %d executed %d and disagrees with replica 0 (executed %d)", i, rep.Executed(), h.Replicas[0].Executed())
				}
			}
			if cut.StateTransfers() == 0 {
				h.errorf("the cut-off replica rejoined without adopting a checkpoint")
			}
		})
	}
}
