package pbft

import (
	"slices"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/msgnet"
	"rubin/internal/sim"
)

// The silence deadline (progress.go): once a view's leader has proposed, a
// backup whose watched request is still known suspects it after a quarter
// of ViewTimeout without a PRE-PREPARE, and keeps the full timeout for a
// request already assigned, a leader that has not proposed yet and the
// NEW-VIEW wait.

// demandTimes records, per replica, when its first VIEW-CHANGE for each
// view reached any peer.
func demandTimes(c *Cluster) map[uint64][]sim.Time {
	first := map[uint64][]sim.Time{}
	tapViewChanges(c, func(_ int, vc ViewChange) {
		at := first[vc.NewView]
		if at == nil {
			at = make([]sim.Time, c.Config.N)
			first[vc.NewView] = at
		}
		if int(vc.Replica) < len(at) && at[vc.Replica] == 0 {
			at[vc.Replica] = c.Loop.Now()
		}
	})
	return first
}

// TestCrashedLeaderSuspectedWithinQuarterTimeout crashes the view-0 leader
// under a steady put stream, so the backups hold known requests when it
// stops proposing. Every backup must demand view 1 within a quarter of
// ViewTimeout, plus one round for the requests in flight to execute and the
// VIEW-CHANGE to arrive — not after a whole ViewTimeout — and the crash
// still costs one view change.
func TestCrashedLeaderSuspectedWithinQuarterTimeout(t *testing.T) {
	const (
		crashAt = 50 * sim.Millisecond
		span    = 120 * sim.Millisecond
		round   = sim.Millisecond
	)
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			c := newTestCluster(t, kind, cfg)
			demanded := demandTimes(c)
			load := newPutLoad(t, c, 10000, span)
			crash := load.base + crashAt
			c.Loop.At(crash, func() { c.Crash(0) })
			load.run(t, sim.Second)

			limit := crash + cfg.ViewTimeout/4 + round
			for id := 1; id < cfg.N; id++ {
				var at sim.Time // 0: never
				if demanded[1] != nil {
					at = demanded[1][id]
				}
				if at == 0 || at > limit {
					t.Errorf("replica %d demanded view 1 at %v (0: never), want by %v (crash at %v)", id, at, limit, crash)
				}
			}
			for v := range demanded {
				if v != 1 {
					t.Errorf("a replica demanded view %d: the crash cost more than one view change", v)
				}
			}
			for id := 1; id < cfg.N; id++ {
				if v := c.Replicas[id].View(); v != 1 {
					t.Errorf("replica %d ended in view %d, want 1", id, v)
				}
			}
		})
	}
}

// TestLeaderThatSkipsOneClientKeepsFullTimeout has the leader keep
// proposing every request but one client's, which it never sees: it is
// never silent for a quarter timeout, so the backups watching that
// client's request suspect it only when the full ViewTimeout has passed
// (Castro & Liskov's timer) — and the next view orders the request.
func TestLeaderThatSkipsOneClientKeepsFullTimeout(t *testing.T) {
	const (
		skipAt = 20 * sim.Millisecond
		span   = 100 * sim.Millisecond
	)
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			c := newTestCluster(t, kind, cfg)
			demanded := demandTimes(c)
			skipped, err := c.AddClient()
			if err != nil {
				t.Fatal(err)
			}
			leader := c.Replicas[0]
			leader.clients = slices.DeleteFunc(leader.clients, func(cl client) bool { return cl.id == skipped.ID() })
			load := newPutLoad(t, c, 5000, span)
			sent := load.base + skipAt
			var answered sim.Time
			c.Loop.At(sent, func() {
				skipped.Invoke(kvstore.EncodeOp(kvstore.OpPut, "skipped", "1"), func([]byte) { answered = c.Loop.Now() })
			})
			load.run(t, sim.Second)

			first := slices.Min(slices.DeleteFunc(slices.Clone(demanded[1]), func(at sim.Time) bool { return at == 0 }))
			if first < sent+cfg.ViewTimeout || first > sent+cfg.ViewTimeout+2*sim.Millisecond {
				t.Errorf("first demand for view 1 at %v, want one ViewTimeout after the skipped request (sent at %v)", first, sent)
			}
			if answered == 0 {
				t.Error("the skipped request was never answered")
			}
			for id, rep := range c.Replicas {
				if rep.View() != 1 {
					t.Errorf("replica %d ended in view %d, want 1", id, rep.View())
				}
			}
		})
	}
}

// TestNewLeaderKeepsFullTimeoutUntilItProposes crashes the view-0 leader
// and has view 1's leader send its NEW-VIEW but no PRE-PREPARE, ever. The
// backups never hear it propose in view 1, so they give it the full
// ViewTimeout from the install — a new leader may take that long to catch
// up — and only then demand view 2, which orders what view 1 did not.
func TestNewLeaderKeepsFullTimeoutUntilItProposes(t *testing.T) {
	const (
		crashAt = 20 * sim.Millisecond
		span    = 120 * sim.Millisecond
	)
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			c := newTestCluster(t, kind, cfg)
			demanded := demandTimes(c)
			installed := make([]sim.Time, cfg.N)
			for id, rep := range c.Replicas {
				rep.OnViewChange(func(v uint64) {
					if v == 1 {
						installed[id] = c.Loop.Now()
					}
				})
			}
			c.Replicas[1].SetOutbox(func(_ *msgnet.Peer, env []byte) ([]byte, sim.Time) {
				if e, err := DecodeEnvelope(env); err == nil && len(e.Payload) > 0 && MsgType(e.Payload[0]) == MsgPrePrepare {
					return nil, 0
				}
				return env, 0
			})
			load := newPutLoad(t, c, 5000, span)
			c.Loop.At(load.base+crashAt, func() { c.Crash(0) })
			load.run(t, sim.Second)

			for _, id := range []int{2, 3} {
				at := demanded[2]
				if installed[id] == 0 || at == nil || at[id] == 0 {
					t.Fatalf("replica %d installed view 1 at %v and demanded view 2 at %v (0: never)", id, installed[id], at)
				}
				if wait := at[id] - installed[id]; wait < cfg.ViewTimeout || wait > cfg.ViewTimeout+2*sim.Millisecond {
					t.Errorf("replica %d demanded view 2 %v after installing view 1, want one ViewTimeout", id, wait)
				}
			}
			for id := 1; id < cfg.N; id++ {
				if v := c.Replicas[id].View(); v != 2 {
					t.Errorf("replica %d ended in view %d, want 2", id, v)
				}
			}
		})
	}
}
