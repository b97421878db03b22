package pbft

import (
	"slices"
	"sort"

	"rubin/internal/sim"
)

// View change. Everything that reaches the wire here is built in a fixed
// order — prepared proofs by ascending sequence, VIEW-CHANGE votes by
// ascending replica id — never in map iteration order: the bytes are
// MAC'd, and a run must reproduce them exactly.

func (r *Replica) startViewChange(newView uint64) {
	if r.stopped || newView <= r.view || (r.viewChanging && newView <= r.demanded) {
		return
	}
	r.viewChanging, r.demanded, r.held = true, newView, nil
	// Cancel batch work and the progress timer (awaitNewView re-arms it);
	// collect prepared proofs above the execution point, in sequence order.
	// This replica holds the requests each names — resolve found every copy
	// — so the new leader can fetch from it what it lacks. A proof takes its
	// own copy of the refs: the cell reuses its backing on its next lap, and
	// the vote stays on file until the view it demands is settled.
	r.batchTimer.Cancel()
	r.progress.Cancel()
	var proofs []PreparedProof
	for seq := r.executed + 1; seq-r.stable <= r.cfg.LogWindow; seq++ {
		if s := r.lookup(seq); s != nil && r.prepared(s) {
			proofs = append(proofs, PreparedProof{View: s.pp.View, Seq: seq, Digest: s.pp.Digest, Refs: slices.Clone(s.pp.Refs)})
		}
	}
	vc := ViewChange{NewView: newView, Stable: r.stable, Prepared: proofs, Replica: r.id}
	r.recordViewChange(vc)
	r.broadcast(vc)
	r.awaitNewView()
}

// awaitNewView starts the wait for the demanded view's NEW-VIEW once 2F+1
// replicas demand that view (Castro & Liskov §4.5.2): until then its
// leader cannot install it, and a replica cut off from the group must not
// climb one view per timeout on its own.
func (r *Replica) awaitNewView() {
	if r.viewChanging && !r.progress.Pending() && r.demands(r.demanded) >= r.cfg.Quorum() {
		r.armProgress()
	}
}

func (r *Replica) handleViewChange(m ViewChange) {
	if m.NewView <= r.view {
		return
	}
	r.recordViewChange(m)
	// Join an in-progress view change once F+1 replicas demand it (we
	// cannot all be faulty) — which adds this replica's own demand to the
	// count the new leader installs the view on.
	if r.demands(m.NewView) >= r.cfg.F+1 {
		r.startViewChange(m.NewView)
	}
	if r.Leader(m.NewView) == r.id && r.demands(m.NewView) >= r.cfg.Quorum() && (r.held == nil || r.held.View != m.NewView) {
		r.installNewView(m.NewView)
	}
	r.awaitNewView()
}

// recordViewChange files a vote under its view, in its sender's cell.
func (r *Replica) recordViewChange(m ViewChange) {
	set := r.vcVotes[m.NewView]
	if set == nil {
		set = make([]*ViewChange, r.cfg.N)
		r.vcVotes[m.NewView] = set
	}
	if int(m.Replica) < len(set) {
		set[m.Replica] = &m
	}
}

// demands counts the replicas whose VIEW-CHANGE for view v is on file.
func (r *Replica) demands(v uint64) int {
	n := 0
	for _, vc := range r.vcVotes[v] {
		if vc != nil {
			n++
		}
	}
	return n
}

// installNewView (new leader): re-propose every prepared slot reported by
// the view-change quorum, filling gaps with empty batches. Backups fetch
// what they lack from this replica, so the NEW-VIEW is held until it holds
// every request named; each it lacks — released on execution here, or
// never received — it fetches from the senders whose proof names it. That
// is never itself: its own proofs name only copies it holds.
func (r *Replica) installNewView(v uint64) {
	maxStable := r.stable
	best := make(map[uint64]PreparedProof)
	var maxSeq uint64
	// Replica-id order: which of two equal-view proofs for one sequence
	// wins is fixed by it.
	for _, vc := range r.vcVotes[v] {
		if vc == nil {
			continue
		}
		maxStable = max(maxStable, vc.Stable)
		for _, p := range vc.Prepared {
			if cur, ok := best[p.Seq]; !ok || p.View > cur.View {
				best[p.Seq] = p
			}
			maxSeq = max(maxSeq, p.Seq)
		}
	}
	// Every correct replica's proofs lie in its own window, which ends at or
	// below maxStable+LogWindow: a proof claiming more is not re-proposed,
	// and a forged one cannot size the NEW-VIEW.
	r.held = &NewView{View: v}
	for seq := maxStable + 1; seq <= maxSeq && seq-maxStable <= r.cfg.LogWindow; seq++ {
		p, ok := best[seq]
		if !ok {
			p.Digest = r.batches.digest(nil)
		}
		r.held.PrePrepares = append(r.held.PrePrepares, PrePrepare{View: v, Seq: seq, Digest: p.Digest, Refs: p.Refs})
		for id, vc := range r.vcVotes[v] {
			if !r.holds(p.Refs) && vc != nil && slices.ContainsFunc(vc.Prepared, func(q PreparedProof) bool { return q.Seq == seq && q.Digest == p.Digest }) {
				r.send(uint32(id), Fetch{Seq: seq, Replica: r.id})
			}
		}
	}
	r.sendHeld()
}

// sendHeld broadcasts and adopts the held NEW-VIEW once this replica holds
// every request it names.
func (r *Replica) sendHeld() {
	nv := r.held
	if nv == nil || slices.ContainsFunc(nv.PrePrepares, func(pp PrePrepare) bool { return !r.holds(pp.Refs) }) {
		return
	}
	r.held = nil
	for _, pp := range nv.PrePrepares {
		if len(pp.Refs) > 0 {
			*r.reproposed++
		}
	}
	r.broadcast(*nv)
	r.adoptNewView(nv.View, *nv)
}

// holds reports whether this replica holds a copy of every request refs
// name, with the ref's digest.
func (r *Replica) holds(refs []RequestRef) bool {
	return !slices.ContainsFunc(refs, func(ref RequestRef) bool { return r.copyOf(r.requests[ref.RequestID]).digest != ref.Digest })
}

func (r *Replica) handleNewView(sender uint32, nv NewView) {
	if nv.View <= r.view || sender != r.Leader(nv.View) {
		return
	}
	r.adoptNewView(nv.View, nv)
}

// settleView ends any view change in progress: the replica is in r.view,
// and votes for it or older views, and any NEW-VIEW held back, are moot.
// Its leader has not been heard from yet (see silenceCounts).
func (r *Replica) settleView() {
	r.viewChanging, r.held, r.heard = false, nil, false
	for view := range r.vcVotes {
		if view <= r.view {
			delete(r.vcVotes, view)
		}
	}
}

// adoptNewView installs the view and admits each re-proposal as a
// PRE-PREPARE past its view and sender check: its refs must hash to its
// digest, then resolve checks them against this replica's copies.
func (r *Replica) adoptNewView(v uint64, nv NewView) {
	r.view = v
	r.settleView()
	// Only what the NEW-VIEW re-proposes is in flight in the new view; the
	// rest, unless it executed here, goes back to the new leader's queue.
	r.resetRequests(false)
	// Reset per-slot voting state for re-proposed slots. The watermark rule
	// holds here as for any proposal: one outside the window gets no slot
	// and no PREPARE, however many sequences a NEW-VIEW names.
	var maxSeq uint64
	for _, pp := range nv.PrePrepares {
		if !r.inWindow(pp.Seq) {
			continue // not ours to hold
		}
		if pp.Seq <= r.executed {
			// The others may need this replica's votes (Castro & Liskov
			// §4.4): the batch executed here, refs and all (advanceStable
			// trusts them), is voted for again and not executed twice.
			if s := r.lookup(pp.Seq); s != nil && s.pp.Digest == pp.Digest && r.batches.digest(pp.Refs) == pp.Digest {
				s.reset(pp.Seq)
				s.propose(pp)
				r.vote(s)
			}
			continue
		}
		s := r.slotFor(pp.Seq)
		s.reset(pp.Seq)
		maxSeq = max(maxSeq, pp.Seq)
		if r.batches.digest(pp.Refs) == pp.Digest {
			s.propose(pp)
			r.resolve(s)
		}
	}
	// seqNext is the proposal frontier of the NEW view: the highest
	// re-proposed or executed sequence. It may move DOWN — a sequence the
	// old view claimed for a proposal that never went out (e.g. the
	// ordering-CPU completion observed the view change and aborted the
	// broadcast) would otherwise stay stranded: nothing re-proposes it,
	// and a later proposal above it could never execute past the hole.
	r.seqNext = max(maxSeq, r.executed)
	// The new view will reuse sequences above the frontier, but the old
	// view may have left slots there (a received pre-prepare sets
	// sentPrep and records votes that are not view-tagged). Reusing such
	// a slot would suppress the new view's PREPARE/COMMIT broadcasts and
	// count stale cross-view votes, so the slots beyond the frontier — at
	// or above the execution point, hence all unexecuted — are dropped;
	// their requests live on in the request table.
	for seq := r.seqNext + 1; seq-r.stable <= r.cfg.LogWindow; seq++ {
		if s := r.lookup(seq); s != nil {
			s.reset(0)
		}
	}
	r.watchOldest() // the new leader gets a full timeout
	if r.IsLeader() {
		for _, id := range r.knownIDs() {
			cp := r.copyOf(r.requests[id])
			r.order(RequestRef{id, cp.digest}, len(cp.op), 0)
			r.assign(id, assigned, 0)
		}
	}
	if r.onViewChange != nil {
		r.onViewChange(v)
	}
	if r.IsLeader() && r.pending.Len() > 0 {
		r.node.Loop().Post(r.propose)
	}
}

// resetRequests empties the leader's queue and takes every slot assignment
// back — what was assigned is merely known again, what is done stays done —
// or, with drop, forgets every request but the copies a slot above the
// execution point names. The clients' floors outlive both. The slab
// entries a drop vacates are sorted, so which entry the next copy takes does
// not follow the map's iteration order.
func (r *Replica) resetRequests(drop bool) {
	r.pending, r.pendingBytes = sim.Queue[admitted]{}, 0
	if drop {
		r.arrivals = sim.Queue[RequestID]{}
	}
	for id, row := range r.requests {
		switch {
		case drop && row.seq <= r.executed:
			r.vacate(&row)
			delete(r.requests, id)
		case !drop && row.state == assigned:
			row.state = known
			r.requests[id] = row
		}
	}
	if drop {
		slices.Sort(r.vacant)
	}
}

// knownIDs returns the identities of the known rows of the request table
// ordered by (client, timestamp): a total order, so re-proposal after a view
// change is deterministic.
func (r *Replica) knownIDs() []RequestID {
	var ids []RequestID
	for id, row := range r.requests {
		if row.state == known {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Client != ids[j].Client {
			return ids[i].Client < ids[j].Client
		}
		return ids[i].Timestamp < ids[j].Timestamp
	})
	return ids
}
