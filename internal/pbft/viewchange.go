package pbft

import (
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
	r.viewChanging, r.demanded = true, newView
	// Cancel batch work and the progress timer (awaitNewView re-arms it);
	// collect prepared proofs above the stable point.
	r.batchTimer.Cancel()
	r.progress.Cancel()
	var seqs []uint64
	for seq, s := range r.log {
		if s.pp != nil && r.prepared(s) && !s.executed {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	proofs := make([]PreparedProof, 0, len(seqs))
	for _, seq := range seqs {
		pp := r.log[seq].pp
		proofs = append(proofs, PreparedProof{View: pp.View, Seq: seq, Digest: pp.Digest, Batch: pp.Batch})
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
	if r.viewChanging && !r.progress.Pending() && len(r.vcVotes[r.demanded]) >= r.cfg.Quorum() {
		r.armProgress()
	}
}

func (r *Replica) handleViewChange(m ViewChange) {
	if m.NewView <= r.view {
		return
	}
	r.recordViewChange(m)
	votes := r.vcVotes[m.NewView]
	// Join an in-progress view change once F+1 replicas demand it (we
	// cannot all be faulty).
	if len(votes) >= r.cfg.F+1 {
		r.startViewChange(m.NewView)
	}
	if r.Leader(m.NewView) == r.id && len(votes) >= r.cfg.Quorum() {
		r.installNewView(m.NewView)
	}
	r.awaitNewView()
}

func (r *Replica) recordViewChange(m ViewChange) {
	set := r.vcVotes[m.NewView]
	if set == nil {
		set = make(map[uint32]ViewChange)
		r.vcVotes[m.NewView] = set
	}
	set[m.Replica] = m
}

// installNewView (new leader): re-propose every prepared slot reported by
// the view-change quorum, filling gaps with empty batches.
func (r *Replica) installNewView(v uint64) {
	votes := r.vcVotes[v]
	maxStable := r.stable
	best := make(map[uint64]PreparedProof)
	var maxSeq uint64
	// Replica-id order: which of two equal-view proofs for one sequence
	// wins must not depend on map iteration.
	for id := uint32(0); id < uint32(r.cfg.N); id++ {
		vc, voted := votes[id]
		if !voted {
			continue
		}
		if vc.Stable > maxStable {
			maxStable = vc.Stable
		}
		for _, p := range vc.Prepared {
			if cur, ok := best[p.Seq]; !ok || p.View > cur.View {
				best[p.Seq] = p
			}
			if p.Seq > maxSeq {
				maxSeq = p.Seq
			}
		}
	}
	var pps []PrePrepare
	for seq := maxStable + 1; seq <= maxSeq; seq++ {
		if p, ok := best[seq]; ok {
			pps = append(pps, PrePrepare{View: v, Seq: seq, Digest: p.Digest, Batch: p.Batch})
		} else {
			pps = append(pps, PrePrepare{View: v, Seq: seq, Digest: r.batches.digest(nil)})
		}
	}
	nv := NewView{View: v, PrePrepares: pps}
	r.broadcast(nv)
	r.adoptNewView(v, nv)
}

func (r *Replica) handleNewView(sender uint32, nv NewView) {
	if nv.View <= r.view || sender != r.Leader(nv.View) {
		return
	}
	r.adoptNewView(nv.View, nv)
}

// settleView ends any view change in progress: the replica is in r.view,
// and votes for it or older views are moot.
func (r *Replica) settleView() {
	r.viewChanging = false
	for view := range r.vcVotes {
		if view <= r.view {
			delete(r.vcVotes, view)
		}
	}
}

// adoptNewView installs the view and replays the re-proposed slots.
func (r *Replica) adoptNewView(v uint64, nv NewView) {
	r.view = v
	r.settleView()
	// Reset per-slot voting state for re-proposed slots.
	var maxSeq uint64
	for _, pp := range nv.PrePrepares {
		pp := pp
		if pp.Seq <= r.executed {
			continue // already executed here; state transfer not needed
		}
		s := newSlot()
		s.pp = &pp
		r.log[pp.Seq] = s
		if pp.Seq > maxSeq {
			maxSeq = pp.Seq
		}
		if r.Leader(v) != r.id {
			s.sentPrep = true
			s.prepares[r.id] = pp.Digest
			r.broadcast(Prepare{View: v, Seq: pp.Seq, Digest: pp.Digest, Replica: r.id})
		}
	}
	// seqNext is the proposal frontier of the NEW view: the highest
	// re-proposed or executed sequence. It may move DOWN — a sequence the
	// old view claimed for a proposal that never went out (e.g. the
	// ordering-CPU completion observed the view change and aborted the
	// broadcast) would otherwise stay stranded: nothing re-proposes it,
	// and a later proposal above it could never execute past the hole.
	r.seqNext = maxSeq
	if r.seqNext < r.executed {
		r.seqNext = r.executed
	}
	// The new view will reuse sequences above the frontier, but the old
	// view may have left slots there (a received pre-prepare sets
	// sentPrep and records votes that are not view-tagged). Reusing such
	// a slot would suppress the new view's PREPARE/COMMIT broadcasts and
	// count stale cross-view votes, so unexecuted slots beyond the
	// frontier are dropped — their requests live on in requestStore.
	for seq, s := range r.log {
		if seq > r.seqNext && !s.executed {
			delete(r.log, seq)
		}
	}
	// Rebuild proposal bookkeeping: only the re-proposed slots count as
	// in flight; everything else known-but-unexecuted goes back to the
	// new leader's queue.
	r.pending = sim.Queue[Request]{}
	r.proposed = make(map[reqID]bool)
	for _, pp := range nv.PrePrepares {
		for _, req := range pp.Batch {
			r.proposed[req.id()] = true
		}
	}
	r.watchOldest() // the new leader gets a full timeout
	for _, id := range r.storedIDs() {
		if r.IsLeader() && !r.proposed[id] {
			r.pending.Push(r.requestStore[id])
			r.proposed[id] = true
		}
	}
	if r.onViewChange != nil {
		r.onViewChange(v)
	}
	if r.IsLeader() && r.pending.Len() > 0 {
		r.node.Loop().Post(r.proposeBatch)
	}
	for _, pp := range nv.PrePrepares {
		r.tryPrepare(pp.Seq)
		r.tryCommit(pp.Seq)
	}
}

// storedIDs returns the identities in requestStore ordered by (client,
// timestamp): a total order, so re-proposal after a view change is
// deterministic.
func (r *Replica) storedIDs() []reqID {
	ids := make([]reqID, 0, len(r.requestStore))
	for id := range r.requestStore {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].client != ids[j].client {
			return ids[i].client < ids[j].client
		}
		return ids[i].timestamp < ids[j].timestamp
	})
	return ids
}
