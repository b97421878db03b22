package pbft

import "rubin/internal/sim"

// The progress timer (Replica.progress; docs/ARCHITECTURE.md, "Liveness
// timers"): which request it watches, its two deadlines and what its
// expiry demands.
//
// A watch has a full deadline, one timeout after it starts, by which the
// watched request must execute (Castro & Liskov §4.4). It has to be long: a
// leader may propose every request but one and stall that one. A leader
// that stops proposing altogether is caught sooner: once this view's leader
// has proposed to this replica, it may not go a quarter of the timeout
// without a PRE-PREPARE while the watched request is known — waiting, and
// named by no PRE-PREPARE of this view — since a live leader with room in
// its window proposes what it holds within batchDelay. The early deadline
// needs no timer of its own: the one timer is armed for the earlier
// deadline, and when it fires it re-arms for the deadline now due if that
// has moved, the leader having proposed meanwhile or the watched request
// having been assigned.

// watchOldest restarts the progress timer, with a full timeout, on the
// waiting request that arrived first — a fixed choice, so runs reproduce
// and a leader cannot starve one client by serving the others. With
// nothing waiting the timer stays cancelled rather than left to lapse: an
// armed timer on an idle replica would keep Loop.Run alive past the work.
func (r *Replica) watchOldest() {
	r.progress.Cancel()
	for ; r.arrivals.Len() > 0; r.arrivals.Pop() {
		if r.waiting(*r.arrivals.Front()) {
			r.watched = *r.arrivals.Front()
			r.armProgress()
			return
		}
	}
}

// timeout is the progress timer's full wait: one ViewTimeout, doubled for
// each consecutive demanded view that failed to install.
func (r *Replica) timeout() sim.Time { return r.cfg.ViewTimeout << r.failedViews }

// armProgress starts the progress timer for a watch or a NEW-VIEW wait that
// begins now. The leader's silence is counted from now at the earliest.
func (r *Replica) armProgress() {
	now := r.node.Loop().Now()
	r.due, r.quiet = now+r.timeout(), max(r.quiet, now)
	r.progress = r.node.Loop().At(r.deadline(), r.onProgress)
}

// silenceCounts reports whether the view leader's silence is held against
// it: this replica watches a known request and has heard the leader propose
// in this view. A request already assigned, a view whose leader has not
// proposed yet (one catching up after NEW-VIEW) and the NEW-VIEW wait keep
// the full timeout.
func (r *Replica) silenceCounts() bool {
	row, seen := r.requests[r.watched]
	return r.heard && !r.viewChanging && seen && row.state == known
}

// deadline is when the progress timer is due: the full deadline, or a
// quarter of the timeout into the leader's silence if that comes first
// and the silence counts.
func (r *Replica) deadline() sim.Time {
	if !r.silenceCounts() {
		return r.due
	}
	return min(r.due, r.quiet+r.timeout()/4)
}

// heardLeader notes a PRE-PREPARE of this view from its leader, inside this
// replica's window or not — a lagging backup hears a live leader as well —
// and ends the silence the timer measures, if it is watching. The leader's
// first one brings a watch armed for its full deadline forward to the
// silence deadline.
func (r *Replica) heardLeader() {
	if r.progress.Pending() {
		r.noteSilence()
	}
	first := !r.heard
	r.quiet, r.heard = r.node.Loop().Now(), true
	if first && r.progress.Pending() && r.deadline() < r.due {
		r.progress.Cancel()
		r.progress = r.node.Loop().At(r.deadline(), r.onProgress)
	}
}

// noteSilence raises the silence peak to the silence now held against the
// leader, if any.
func (r *Replica) noteSilence() {
	if r.silenceCounts() {
		*r.silencePeak = max(*r.silencePeak, uint64(r.node.Loop().Now()-r.quiet))
	}
}

// progressExpired: the timer fired. Outside a view change it re-arms if the
// deadline due has moved past now; otherwise the watched request did not
// execute in time, or the leader fell silent, or the awaited NEW-VIEW never
// came — then the next view's wait doubles.
func (r *Replica) progressExpired() {
	next := r.view + 1
	if r.viewChanging {
		r.failedViews++
		next = r.demanded + 1
	} else if at := r.deadline(); at > r.node.Loop().Now() {
		r.progress = r.node.Loop().At(at, r.onProgress)
		return
	}
	r.noteSilence()
	r.startViewChange(next)
}
