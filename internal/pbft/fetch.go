package pbft

import "slices"

// Requests by reference. A PRE-PREPARE names its requests by ref, and every
// replica executes its own copy, filed when the client's broadcast reached
// it. A backup whose copy has not arrived — the proposal overtook it, or the
// replica was down when the client sent it — parks the proposal in its slot
// and asks the proposal's sender for the copies; the client's copy or the
// answer, whichever lands first, lets the proposal go on.

// resolve checks a proposal against this replica's copies and PREPAREs it
// once every request it names is held with the ref's digest. A held copy
// with another digest drops the proposal: no evidence against the leader,
// as for a batch that fails its digest, since the client may have sent the
// replicas different requests. A missing copy parks the proposal and, the
// first time, sends its sender one FETCH.
func (r *Replica) resolve(s *slot) {
	missing := false
	for _, ref := range s.pp.Refs {
		switch row, seen := r.requests[ref.RequestID]; {
		case !seen:
			missing = true
		case r.copyOf(row).digest != ref.Digest:
			s.proposed, s.parked = false, false
			return
		default:
			r.assign(ref.RequestID, assigned, s.seq) // watched since it was filed
		}
	}
	if missing {
		if !s.parked {
			s.parked = true
			r.parked = append(r.parked, s.seq)
			r.send(r.Leader(s.pp.View), Fetch{Seq: s.seq, Replica: r.id})
		}
		return
	}
	s.parked = false
	r.vote(s)
}

// vote PREPAREs s's proposal, unless this replica leads its view (a
// leader's proposal stands for its vote), and goes on to COMMIT it once it
// is prepared — in the installed view only.
func (r *Replica) vote(s *slot) {
	if !r.accepts(s.pp.View, s.seq) {
		return
	}
	if !s.sentPrep && r.Leader(s.pp.View) != r.id {
		s.sentPrep = true
		s.prepares.set(r.id, s.pp.Digest)
		r.broadcast(Prepare{View: s.pp.View, Seq: s.seq, Digest: s.pp.Digest, Replica: r.id})
	}
	r.tryPrepare(s.seq)
	r.tryCommit(s.seq)
}

// parkedSlots forgets the parked sequences whose slot moved on, then calls
// visit on every slot whose proposal is still parked. A visit can resolve
// proposals and so walk the list itself: this walk goes over a copy, and
// checks each slot again before its call.
func (r *Replica) parkedSlots(visit func(*slot)) {
	r.parked = slices.DeleteFunc(r.parked, func(seq uint64) bool {
		s := r.lookup(seq)
		return s == nil || !s.parked
	})
	for _, seq := range slices.Clone(r.parked) {
		if s := r.lookup(seq); s != nil && s.parked {
			visit(s)
		}
	}
}

// unpark retries every parked proposal that names ref, and the held
// NEW-VIEW, now that its copy is filed.
func (r *Replica) unpark(ref RequestRef) {
	r.parkedSlots(func(s *slot) {
		if slices.Contains(s.pp.Refs, ref) {
			r.resolve(s)
		}
	})
	r.sendHeld()
}

// stranded reports whether a proposal is parked at or below seq.
func (r *Replica) stranded(seq uint64) (found bool) {
	r.parkedSlots(func(s *slot) { found = found || s.seq <= seq })
	return found
}

// handleFetch answers a FETCH with this replica's copy of every request its
// proposal at that sequence names, each as a REQUEST to the authenticated
// sender. A sequence at or below the stable point is forgotten, requests
// and all: the answer is the stable checkpoint, which tells the sender to
// fetch state instead (see recordCheckpoint).
func (r *Replica) handleFetch(sender uint32, m Fetch) {
	if m.Seq <= r.stable {
		if rec := r.cps.latest(r.stable); rec != nil && rec.seq == r.stable {
			r.send(sender, Checkpoint{Seq: rec.seq, Digest: rec.digest, Replica: r.id})
		}
		return
	}
	s := r.lookup(m.Seq)
	if s == nil || !s.proposed || s.parked {
		return
	}
	for _, ref := range s.pp.Refs {
		if cp := r.copyOf(r.requests[ref.RequestID]); cp.digest == ref.Digest { // a copy held, not released
			r.send(sender, Request{ref.Client, ref.Timestamp, cp.op})
		}
	}
}

// handleFetched takes one request of a FETCH answer. It is filed only as
// the copy a parked proposal or the held NEW-VIEW names, of a registered
// client: its digest must be the ref's. A released copy is taken back, its
// row's state unchanged: a new leader answers for every request its
// NEW-VIEW names, executed or not.
func (r *Replica) handleFetched(req Request) {
	if r.client(req.Client) == nil {
		return // no front-end registered the id it names
	}
	row := r.requests[req.ID()]
	if row.held != 0 || len(r.parked) == 0 && r.held == nil {
		return // a copy is held — the client's landed first — or nothing waits for one
	}
	d, _ := r.digest(req)
	ref := RequestRef{req.ID(), d}
	wanted := r.held != nil && slices.ContainsFunc(r.held.PrePrepares, func(pp PrePrepare) bool { return slices.Contains(pp.Refs, ref) })
	r.parkedSlots(func(s *slot) { wanted = wanted || slices.Contains(s.pp.Refs, ref) })
	if wanted {
		r.file(req.ID(), req.Op, d, row.state) // a new row's zero state is known; a released row stays done
		r.unpark(ref)
	}
}

// copies returns this replica's copies of the requests refs name.
func (r *Replica) copies(refs []RequestRef) []Request {
	batch := make([]Request, len(refs))
	for i, ref := range refs {
		batch[i] = Request{ref.Client, ref.Timestamp, r.copyOf(r.requests[ref.RequestID]).op}
	}
	return batch
}
