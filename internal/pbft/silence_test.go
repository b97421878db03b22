package pbft

import (
	"slices"
	"testing"

	"rubin/internal/sim"
)

// The silence deadline (progress.go): once a view's leader has proposed, a
// backup whose watched request is still known suspects it after a quarter
// of ViewTimeout without a PRE-PREPARE, and keeps the full timeout for a
// request already assigned, a leader that has not proposed yet and the
// NEW-VIEW wait.

// TestCrashedLeaderSuspectedWithinQuarterTimeout: view 0's leader
// proposes, then falls silent — nothing reaches it, and its timer never
// fires — while the backups hold a known request. Every backup demands view
// 1 a quarter of ViewTimeout after the leader's last PRE-PREPARE — not a
// whole ViewTimeout after the request — and the silence costs one view
// change.
func TestCrashedLeaderSuspectedWithinQuarterTimeout(t *testing.T) {
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			h := newStepCluster(t, kind, cfg)
			h.submit(1, 0, 1, 2, 3)
			h.drain(everything)
			heard := h.Loop.Now() // the PRE-PREPARE was delivered as it was sent
			h.submit(2, 1, 2, 3)
			for id := 1; id < cfg.N; id++ {
				if at := h.fire(id); at != heard+cfg.ViewTimeout/4 {
					h.errorf("replica %d demanded view 1 at %v, want a quarter timeout after the last PRE-PREPARE at %v", id, at, heard)
				}
			}
			h.drain(func(e envelope) bool { return e.to != 0 })
			for _, e := range h.done {
				if vc, ok := e.msg().(ViewChange); ok && vc.NewView != 1 {
					h.errorf("replica %d demanded view %d: the silence cost more than one view change", vc.Replica, vc.NewView)
				}
			}
			for id := 1; id < cfg.N; id++ {
				if v := h.Replicas[id].View(); v != 1 || !slices.Contains(h.answers(2), id) {
					h.errorf("replica %d ended in view %d, answered %v; want view 1, request 2 answered", id, v, h.answers(2))
				}
			}
		})
	}
}

// TestLeaderThatSkipsOneClientKeepsFullTimeout: the leader never sees one
// request, and keeps proposing the others, a PRE-PREPARE every eighth of
// ViewTimeout: it is never silent for a quarter timeout, so the backups
// watching the request it skips suspect it only when the full ViewTimeout
// has passed (Castro & Liskov's timer) — and the next view orders the
// request.
func TestLeaderThatSkipsOneClientKeepsFullTimeout(t *testing.T) {
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			h := newStepCluster(t, kind, cfg)
			h.submit(1, 1, 2, 3)
			sent := h.Loop.Now()
			for ts := uint64(2); ts < 9; ts++ {
				h.settle(cfg.ViewTimeout / 8)
				h.submit(ts, 0, 1, 2, 3)
				h.drain(everything)
			}
			for id := 1; id < cfg.N; id++ {
				if at := h.fire(id); at != sent+cfg.ViewTimeout {
					h.errorf("replica %d demanded view 1 at %v, want one ViewTimeout after the skipped request (sent at %v)", id, at, sent)
				}
			}
			h.drain(everything)
			if !h.completed(1) {
				h.errorf("the skipped request was answered by replicas %v, want F+1 matching", h.answers(1))
			}
			for id, rep := range h.Replicas {
				if rep.View() != 1 {
					h.errorf("replica %d ended in view %d, want 1", id, rep.View())
				}
			}
		})
	}
}

// TestNewLeaderKeepsFullTimeoutUntilItProposes: view 0's leader falls
// silent, and view 1's leader sends its NEW-VIEW but no PRE-PREPARE, ever.
// The backups never hear it propose in view 1, so they give it the full
// ViewTimeout from the install — a new leader may take that long to catch
// up — and only then demand view 2, which orders what view 1 did not.
func TestNewLeaderKeepsFullTimeoutUntilItProposes(t *testing.T) {
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			cfg := DefaultConfig()
			h := newStepCluster(t, kind, cfg)
			installed := make([]sim.Time, cfg.N)
			for id, rep := range h.Replicas {
				rep.OnViewChange(func(v uint64) {
					if v == 1 {
						installed[id] = h.Loop.Now()
					}
				})
			}
			delivered := func(e envelope) bool { return e.to != 0 && (e.from != 1 || e.typ() != MsgPrePrepare) }
			h.submit(1, 0, 1, 2, 3)
			h.drain(everything)
			h.submit(2, 1, 2, 3)
			for id := 1; id < cfg.N; id++ {
				h.fire(id)
			}
			h.drain(delivered)
			for _, id := range []int{2, 3} {
				if at := h.fire(id); installed[id] == 0 || at-installed[id] != cfg.ViewTimeout {
					h.errorf("replica %d installed view 1 at %v and demanded view 2 at %v, want one ViewTimeout later", id, installed[id], at)
				}
			}
			h.drain(delivered)
			for id := 1; id < cfg.N; id++ {
				if v := h.Replicas[id].View(); v != 2 || !slices.Contains(h.answers(2), id) {
					h.errorf("replica %d ended in view %d, answered %v; want view 2, request 2 answered", id, v, h.answers(2))
				}
			}
		})
	}
}
