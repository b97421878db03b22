package pbft

import (
	"fmt"
	"testing"

	"rubin/internal/msgnet"
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// putLoad is the benchmark's open-loop shape with puts only: Poisson
// arrivals at rate per second for span, over 256 sequential users (an
// arrival behind a busy user queues, so an outage releases a burst) on
// four clients. run drives it to the end; a wedged group is stopped once
// budget has passed after the last arrival, so it fails instead of hanging.
type putLoad struct {
	*workload.Driver
	c    *Cluster
	base sim.Time // when the stream starts: adding clients takes virtual time
	span sim.Time
}

func newPutLoad(t *testing.T, c *Cluster, rate float64, span sim.Time) *putLoad {
	t.Helper()
	clients := make([]*Client, 4)
	for i := range clients {
		var err error
		if clients[i], err = c.AddClient(); err != nil {
			t.Fatal(err)
		}
	}
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
	if err := l.Run(); err != nil {
		t.Fatal(err)
	}
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
			kind, scale := kind, scale
			t.Run(fmt.Sprintf("%s/x%g", kind, scale), func(t *testing.T) {
				cfg := DefaultConfig()
				c := newTestCluster(t, kind, cfg)
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

// tapInbound calls see(to, payload) for every replica-to-replica message
// replica `to` receives, before the replica handles it.
func tapInbound(c *Cluster, see func(to int, payload []byte)) {
	filterInbound(c, func(to int, payload []byte) bool { see(to, payload); return true })
}

// filterInbound is tapInbound whose keep decides whether the replica
// handles the message or never sees it.
func filterInbound(c *Cluster, keep func(to int, payload []byte) bool) {
	for i, rep := range c.Replicas {
		for _, p := range c.inboundPeer[i] {
			p.OnMessage(func(_ msgnet.Class, raw []byte) {
				if env, err := DecodeEnvelope(raw); err != nil || len(env.Payload) == 0 || keep(i, env.Payload) {
					rep.handleEnvelope(raw)
				}
			})
		}
	}
}

// tapViewChanges is tapInbound for VIEW-CHANGE messages.
func tapViewChanges(c *Cluster, see func(to int, vc ViewChange)) {
	tapInbound(c, func(to int, payload []byte) {
		if m, err := Decode(payload); err == nil {
			if vc, ok := m.(ViewChange); ok {
				see(to, vc)
			}
		}
	})
}

// TestCutOffBackupDemandsOneView partitions one backup away, with requests
// outstanding, for 10 × ViewTimeout. Its progress timer fires once and it
// demands view+1 — and there it must stay: without 2F+1 VIEW-CHANGEs no
// NEW-VIEW wait starts, so it neither climbs a view per timeout nor queues
// a VIEW-CHANGE (each carrying its prepared batches) per view toward peers
// it cannot reach. After the heal it rejoins the group's view.
func TestCutOffBackupDemandsOneView(t *testing.T) {
	const (
		cutAt  = 50 * sim.Millisecond
		healAt = cutAt + 10*40*sim.Millisecond
		span   = healAt + 100*sim.Millisecond
	)
	for _, kind := range kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			c := newTestCluster(t, kind, cfg)
			demands := make(map[uint64]int) // view demanded by replica 3 -> VIEW-CHANGEs delivered
			tapViewChanges(c, func(_ int, vc ViewChange) {
				if vc.Replica == 3 {
					demands[vc.NewView]++
				}
			})
			load := newPutLoad(t, c, 5000, span)
			cut := c.Replicas[3]
			c.Loop.At(load.base+cutAt, func() { c.Partition([]int{3}, []int{0, 1, 2}) })
			c.Loop.At(load.base+healAt, func() {
				if !cut.viewChanging || cut.demanded != 1 || cut.progress.Pending() {
					t.Errorf("after 10 timeouts alone: viewChanging=%v demanded=%d timer armed=%v; want a lone, timerless demand for view 1",
						cut.viewChanging, cut.demanded, cut.progress.Pending())
				}
				c.Heal()
			})
			// The heal releases what the cut-off replica queued meanwhile.
			c.Loop.At(load.base+healAt+5*sim.Millisecond, func() {
				if len(demands) != 1 || demands[1] != cfg.N-1 {
					t.Errorf("VIEW-CHANGEs queued while cut off, by view: %v; want one per peer, for view 1", demands)
				}
			})
			load.run(t, sim.Second)

			// Catching up may take longer than a timeout, and then the
			// replica demands view 1 again — but never a higher one.
			delete(demands, 1)
			if len(demands) != 0 {
				t.Errorf("replica 3 never left view 0, yet demanded views above 1 (view: VIEW-CHANGEs delivered): %v", demands)
			}
			for i, rep := range c.Replicas {
				if rep.View() != 0 || rep.viewChanging {
					t.Errorf("replica %d ended in view %d (viewChanging=%v), want settled in view 0", i, rep.View(), rep.viewChanging)
				}
				if rep.Executed() != c.Replicas[0].Executed() || c.Apps[i].Snapshot() != c.Apps[0].Snapshot() {
					t.Errorf("replica %d executed %d and disagrees with replica 0 (executed %d)", i, rep.Executed(), c.Replicas[0].Executed())
				}
			}
			if cut.StateTransfers() == 0 {
				t.Error("the cut-off replica rejoined without adopting a checkpoint")
			}
		})
	}
}
