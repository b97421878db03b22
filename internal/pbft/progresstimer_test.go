package pbft

import (
	"fmt"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// propose injects view's leader's proposal of request ts at seq to replica
// r — and, if r holds no copy of the request and so parks the proposal,
// the leader's answer to its FETCH.
func (h *stepCluster) propose(r int, seq, ts uint64) *slot {
	rep, req := h.Replicas[r], putRequest(ts)
	leader := int(rep.Leader(rep.view))
	h.inject(leader, r, PrePrepare{View: rep.view, Seq: seq, Digest: BatchDigest([]Request{req}), Refs: []RequestRef{refOf(req)}})
	if s := rep.lookup(seq); s != nil && s.parked {
		h.inject(leader, r, req)
	}
	return rep.lookup(seq)
}

// commit injects a proposal to replica r and the other replicas' votes that
// commit it.
func (h *stepCluster) commit(r int, seq, ts uint64) {
	s := h.propose(r, seq, ts)
	for id := range h.Replicas {
		if id != r && uint32(id) != h.Replicas[r].Leader(s.pp.View) {
			h.inject(id, r, Prepare{View: s.pp.View, Seq: seq, Digest: s.pp.Digest, Replica: uint32(id)})
		}
		if id != r {
			h.inject(id, r, Commit{View: s.pp.View, Seq: seq, Digest: s.pp.Digest, Replica: uint32(id)})
		}
	}
}

// demand injects the listed replicas' VIEW-CHANGEs for view to replica r.
func (h *stepCluster) demand(r int, view uint64, from ...int) {
	for _, id := range from {
		h.inject(id, r, ViewChange{NewView: view, Replica: uint32(id)})
	}
}

// idle fails the test unless the loop holds nothing to run — no progress
// timer armed, no continuation — and settling leaves the clock where it is.
func (h *stepCluster) idle(when string) {
	h.t.Helper()
	at := h.Loop.Now()
	if h.settle(0); h.Loop.Pending() != 0 || h.Loop.Now() != at {
		h.errorf("%s: the loop ran until %v and holds %d events; want it idle at %v", when, h.Loop.Now(), h.Loop.Pending(), at)
	}
}

// TestProgressTimerRule walks replica 3, whose peers the test plays,
// through every transition of its progress timer and checks, after each
// step, which state the timer is in and when it expires — and, wherever
// the replica ends up idle, that the loop holds nothing: an armed timer
// left behind on an idle replica keeps Loop.Run alive for a timeout past
// the work, which is what once halved E8's leader_cpu (busy time over loop
// span). A watch is due a full timeout after it starts, or a quarter
// timeout into the view leader's silence once that leader has proposed
// here and while the watched request is known.
func TestProgressTimerRule(t *testing.T) {
	const (
		ms = sim.Millisecond
		T  = 40 * ms // DefaultConfig().ViewTimeout
		Q  = T / 4   // the silence bound

		idle     = "idle"
		watching = "watching"
		awaiting = "awaiting NEW-VIEW"
	)
	beyond := DefaultConfig().LogWindow + 1 // past the window of a replica at stable point 0
	steps := []struct {
		name     string
		at       sim.Time             // when the step happens
		do       func(h *stepCluster) // nil: the step is the timer expiring at `at`
		state    string               // the timer's state afterwards
		due      sim.Time             // its deadline, unless idle
		demanded uint64               // view demanded, while a view change is on
	}{
		{"a request arrives before the leader proposed: a full timeout", 1 * ms, func(h *stepCluster) { h.submit(1, 3) }, watching, 1*ms + T, 0},
		{"a second arrives: the first stays watched", 2 * ms, func(h *stepCluster) { h.submit(2, 3) }, watching, 1*ms + T, 0},
		{"a third arrives", 3 * ms, func(h *stepCluster) { h.submit(3, 3) }, watching, 1*ms + T, 0},
		{"the watched one is proposed and executes, the next is known: a quarter timeout into the silence", 5 * ms,
			func(h *stepCluster) { h.commit(3, 1, 1) }, watching, 5*ms + Q, 0},
		{"the leader proposes the third, not the watched one: the silence starts again", 8 * ms,
			func(h *stepCluster) { h.propose(3, 2, 3) }, watching, 8*ms + Q, 0},
		{"a proposal beyond this replica's window is heard too", 9 * ms, func(h *stepCluster) { h.propose(3, beyond, 9) }, watching, 9*ms + Q, 0},
		{"the leader proposes the watched one: assigned, the full deadline again", 10 * ms,
			func(h *stepCluster) { h.propose(3, 3, 2) }, watching, 5*ms + T, 0},
		{"the store empties", 11 * ms, func(h *stepCluster) { h.commit(3, 2, 3); h.commit(3, 3, 2) }, idle, 0, 0},
		{"a request arrives, the leader already heard: a quarter timeout", 20 * ms, func(h *stepCluster) { h.submit(4, 3) }, watching, 20*ms + Q, 0},
		{"a checkpoint is adopted", 22 * ms, func(h *stepCluster) { h.Replicas[3].adoptCheckpoint(64, auth.Digest{}, 0) }, idle, 0, 0},
		{"a request arrives, the leader unheard since the adoption: a full timeout", 30 * ms, func(h *stepCluster) { h.submit(5, 3) }, watching, 30*ms + T, 0},
		{"it does not execute: demand view 1, and wait for company", 70 * ms, nil, idle, 0, 1},
		{"2F VIEW-CHANGEs", 71 * ms, func(h *stepCluster) { h.demand(3, 1, 0) }, idle, 0, 1},
		{"the 2F+1st starts the NEW-VIEW wait", 72 * ms, func(h *stepCluster) { h.demand(3, 1, 2) }, awaiting, 72*ms + T, 1},
		{"a proposal of the old view's leader does not shorten it", 73 * ms, func(h *stepCluster) { h.propose(3, 65, 9) }, awaiting, 72*ms + T, 1},
		{"no NEW-VIEW: demand view 2", 112 * ms, nil, idle, 0, 2},
		{"2F+1 demand view 2: the wait is doubled", 113 * ms, func(h *stepCluster) { h.demand(3, 2, 0, 1) }, awaiting, 113*ms + 2*T, 2},
		{"no NEW-VIEW again: demand view 3", 193 * ms, nil, idle, 0, 3},
		{"view 2 installs after all: the request is watched again, timeout still backed off, its leader unheard", 200 * ms,
			func(h *stepCluster) { h.inject(2, 3, NewView{View: 2}) }, watching, 200*ms + 4*T, 0},
		{"another request arrives", 202 * ms, func(h *stepCluster) { h.submit(6, 3) }, watching, 200*ms + 4*T, 0},
		{"view 2's leader proposes it, not the watched one: due a quarter of the backed-off timeout into the silence", 205 * ms,
			func(h *stepCluster) { h.propose(3, 65, 6) }, watching, 205*ms + T, 0},
		{"both execute in the new view", 210 * ms, func(h *stepCluster) { h.commit(3, 65, 6); h.commit(3, 66, 5) }, idle, 0, 0},
		{"a request arrives: back to one ViewTimeout, a quarter of it into the silence", 220 * ms,
			func(h *stepCluster) { h.submit(7, 3) }, watching, 220*ms + Q, 0},
		{"the leader stays silent: demand view 3", 230 * ms, nil, idle, 0, 3},
	}
	for k, step := range steps {
		// Take the script up to and including step k on a fresh cluster.
		h := newStepCluster(t, transport.KindTCP, DefaultConfig())
		r, base := h.Replicas[3], h.Loop.Now()
		for _, s := range steps[:k+1] {
			if s.do == nil {
				h.fire(3)
				continue
			}
			h.settle(base + s.at - h.Loop.Now())
			s.do(h)
		}
		state := idle
		if r.progress.Pending() {
			state = watching
			if r.viewChanging {
				state = awaiting
			}
		}
		if state != step.state {
			h.errorf("step %d at %v (%s): timer is %s, want %s", k, step.at, step.name, state, step.state)
		}
		if r.viewChanging != (step.demanded != 0) || (r.viewChanging && r.demanded != step.demanded) {
			h.errorf("step %d at %v (%s): viewChanging=%v demanding view %d, want view %d (0: no view change)",
				k, step.at, step.name, r.viewChanging, r.demanded, step.demanded)
		}
		// Nothing else happens from here on: the timer expires — or, with
		// the timer idle, the loop holds nothing.
		if step.state == idle {
			h.idle(fmt.Sprintf("step %d at %v (%s)", k, step.at, step.name))
		} else if at := h.fire(3) - base; at != step.due {
			h.errorf("step %d at %v (%s): the timer expired at %v, want %v", k, step.at, step.name, at, step.due)
		}
	}
}
