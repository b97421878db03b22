package pbft

import (
	"testing"

	"rubin/internal/auth"
	"rubin/internal/kvstore"
	"rubin/internal/sim"
)

// timerFixture is replica 3 of 4 alone on a loop — no peers, no cluster:
// protocol events are method calls, and the only thing that can keep the
// loop alive is the replica's own progress timer.
type timerFixture struct {
	loop  *sim.Loop
	r     *Replica
	fired []sim.Time // when the progress timer expired (a firing that only re-arms it is none)
}

func newTimerFixture(t *testing.T) *timerFixture {
	t.Helper()
	r := bareReplica(t, 3, DefaultConfig())
	loop := r.node.Loop()
	x := &timerFixture{loop: loop, r: r}
	fire := r.onProgress
	r.onProgress = func() {
		demanded, changing := r.demanded, r.viewChanging
		if fire(); r.demanded != demanded || r.viewChanging != changing {
			x.fired = append(x.fired, loop.Now())
		}
	}
	return x
}

func timerRequest(ts uint64) Request {
	return Request{Client: 100, Timestamp: ts, Op: kvstore.EncodeOp(kvstore.OpPut, "k", "v")}
}

func (x *timerFixture) arrive(ts uint64) { x.r.handleRequest(timerRequest(ts), nil) }

// execute commits a one-request batch at the next sequence number.
func (x *timerFixture) execute(ts uint64) { x.commit(x.r.executed+1, ts) }

func (x *timerFixture) demand(view uint64, from ...uint32) {
	for _, id := range from {
		x.r.handleViewChange(ViewChange{NewView: view, Replica: id})
	}
}

// TestProgressTimerRule walks one replica through every transition of its
// progress timer and checks, after each step, which state the timer is in
// and when it would expire — and, wherever the replica ends up idle, that
// the loop drains on the spot: an armed timer left behind on an idle
// replica keeps Loop.Run alive for a timeout past the work, which is what
// once halved E8's leader_cpu (busy time over loop span). A watch is due a
// full timeout after it starts, or a quarter timeout into the view
// leader's silence once that leader has proposed here and while the
// watched request is known.
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
		at       sim.Time              // when the step happens
		do       func(x *timerFixture) // nil: the step is the timer expiring at `at`
		state    string                // the timer's state afterwards
		due      sim.Time              // its deadline, unless idle
		demanded uint64                // view demanded, while a view change is on
	}{
		{"a request arrives before the leader proposed: a full timeout", 1 * ms, func(x *timerFixture) { x.arrive(1) }, watching, 1*ms + T, 0},
		{"a second arrives: the first stays watched", 2 * ms, func(x *timerFixture) { x.arrive(2) }, watching, 1*ms + T, 0},
		{"a third arrives", 3 * ms, func(x *timerFixture) { x.arrive(3) }, watching, 1*ms + T, 0},
		{"the watched one is proposed and executes, the next is known: a quarter timeout into the silence", 5 * ms,
			func(x *timerFixture) { x.execute(1) }, watching, 5*ms + Q, 0},
		{"the leader proposes the third, not the watched one: the silence starts again", 8 * ms,
			func(x *timerFixture) { x.preprepare(2, 3) }, watching, 8*ms + Q, 0},
		{"a proposal beyond this replica's window is heard too", 9 * ms, func(x *timerFixture) { x.preprepare(beyond, 9) }, watching, 9*ms + Q, 0},
		{"the leader proposes the watched one: assigned, the full deadline again", 10 * ms,
			func(x *timerFixture) { x.preprepare(3, 2) }, watching, 5*ms + T, 0},
		{"the store empties", 11 * ms, func(x *timerFixture) { x.execute(3); x.execute(2) }, idle, 0, 0},
		{"a request arrives, the leader already heard: a quarter timeout", 20 * ms, func(x *timerFixture) { x.arrive(4) }, watching, 20*ms + Q, 0},
		{"a checkpoint is adopted", 22 * ms, func(x *timerFixture) { x.r.adoptCheckpoint(64, auth.Digest{}, 0) }, idle, 0, 0},
		{"a request arrives, the leader unheard since the adoption: a full timeout", 30 * ms, func(x *timerFixture) { x.arrive(5) }, watching, 30*ms + T, 0},
		{"it does not execute: demand view 1, and wait for company", 70 * ms, nil, idle, 0, 1},
		{"2F VIEW-CHANGEs", 71 * ms, func(x *timerFixture) { x.demand(1, 0) }, idle, 0, 1},
		{"the 2F+1st starts the NEW-VIEW wait", 72 * ms, func(x *timerFixture) { x.demand(1, 2) }, awaiting, 72*ms + T, 1},
		{"a proposal of the old view's leader does not shorten it", 73 * ms, func(x *timerFixture) { x.preprepare(65, 9) }, awaiting, 72*ms + T, 1},
		{"no NEW-VIEW: demand view 2", 112 * ms, nil, idle, 0, 2},
		{"2F+1 demand view 2: the wait is doubled", 113 * ms, func(x *timerFixture) { x.demand(2, 0, 1) }, awaiting, 113*ms + 2*T, 2},
		{"no NEW-VIEW again: demand view 3", 193 * ms, nil, idle, 0, 3},
		{"view 2 installs after all: the request is watched again, timeout still backed off, its leader unheard", 200 * ms,
			func(x *timerFixture) { x.r.handleNewView(2, NewView{View: 2}) }, watching, 200*ms + 4*T, 0},
		{"another request arrives", 202 * ms, func(x *timerFixture) { x.arrive(6) }, watching, 200*ms + 4*T, 0},
		{"view 2's leader proposes it, not the watched one: due a quarter of the backed-off timeout into the silence", 205 * ms,
			func(x *timerFixture) { x.preprepare(65, 6) }, watching, 205*ms + T, 0},
		{"both execute in the new view", 210 * ms, func(x *timerFixture) { x.execute(6); x.execute(5) }, idle, 0, 0},
		{"a request arrives: back to one ViewTimeout, a quarter of it into the silence", 220 * ms,
			func(x *timerFixture) { x.arrive(7) }, watching, 220*ms + Q, 0},
		{"the leader stays silent: demand view 3", 230 * ms, nil, idle, 0, 3},
	}
	for k, step := range steps {
		// Replay the script up to and including step k on a fresh replica.
		x := newTimerFixture(t)
		for _, s := range steps[:k+1] {
			x.loop.RunUntil(s.at)
			if s.do != nil {
				s.do(x)
			}
		}
		state := idle
		if x.r.progress.Pending() {
			state = watching
			if x.r.viewChanging {
				state = awaiting
			}
		}
		if state != step.state {
			t.Errorf("step %d at %v (%s): timer is %s, want %s", k, step.at, step.name, state, step.state)
		}
		if x.r.viewChanging != (step.demanded != 0) || (x.r.viewChanging && x.r.demanded != step.demanded) {
			t.Errorf("step %d at %v (%s): viewChanging=%v demanding view %d, want view %d (0: no view change)",
				k, step.at, step.name, x.r.viewChanging, x.r.demanded, step.demanded)
		}
		// Nothing else happens from here on: the loop runs until the timer
		// expires — or, with the timer idle, not at all.
		before := len(x.fired)
		x.loop.Run()
		switch {
		case step.state == idle && (len(x.fired) != before || x.loop.Now() != step.at):
			t.Errorf("step %d at %v (%s): an idle replica kept the loop running until %v", k, step.at, step.name, x.loop.Now())
		case step.state != idle && (len(x.fired) == before || x.fired[before] != step.due):
			t.Errorf("step %d at %v (%s): timer expiries after the step %v, want the first at %v", k, step.at, step.name, x.fired[before:], step.due)
		}
	}
}
