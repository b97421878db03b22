package pbft

import (
	"bytes"
	"slices"

	"rubin/internal/auth"
	"rubin/internal/msgnet"
	"rubin/internal/obs"
	"rubin/internal/sim"
)

// Normal case: request intake, leader batching, the three-phase agreement
// and in-order execution, plus the read-only fast path and replies.

// client is a row of the client table: where replies go (handleRequest), the
// last one (a repeat of that request is answered from it: exactly-once; its
// result is copied into a buffer the row reuses, since Execute lends it) and
// the floor, the highest timestamp whose sequence left the watermark window.
// At or below it a request is old news — a quorum executed it — and has no
// row in the request table any more (Castro & Liskov §4.1).
type client struct {
	conn  *msgnet.Peer
	last  Reply
	floor uint64
}

// client returns id's row, starting one at first sight.
func (r *Replica) client(id uint32) *client {
	c := r.clients[id]
	if c == nil {
		c = &client{}
		r.clients[id] = c
	}
	return c
}

// request is a row of the request table: this replica's copy of a request
// and its digest — what a proposal's ref is checked against, computed once,
// when the copy is filed — and its state: known (stored until a leader
// orders it), assigned (in this leader's queue, or in a slot) or done
// (executed here; a replica that did not propose it has released the copy,
// see tryExecute). seq is the latest sequence whose slot names the request
// (0: none yet). advanceStable forgets the row when seq leaves the watermark
// window, so a row outlives every slot that names it, and the table holds
// what is outstanding plus at most a window of batches.
type request struct {
	Request
	digest auth.Digest
	state  reqState
	seq    uint64
}

type reqState uint8

const (
	known reqState = iota
	assigned
	done
)

// handleRequest admits a request that arrived on conn. The two tables
// decide, and only here: execution applies whatever a committed batch holds,
// because replicas trim their tables at different times and would diverge
// over one consulted there. The reply route moves to conn only on admission
// (or is set by the client's first request): a replay does not move it.
func (r *Replica) handleRequest(req Request, conn *msgnet.Peer) {
	if r.stopped {
		return
	}
	c := r.client(req.Client)
	if c.conn == nil {
		c.conn = conn // the first route, whichever request brings it
	}
	if c.last.Timestamp == req.Timestamp { // timestamps start at 1
		r.sendToClient(c.conn, c.last)
		return
	}
	row, seen := r.requests[req.ID()]
	if req.Timestamp <= c.floor || seen && row.state != known {
		return
	}
	c.conn = conn
	digested := r.node.Loop().Now()
	if !seen {
		row.Request = req
		row.digest, digested = r.digest(req)
	}
	ref := RequestRef{req.ID(), row.digest}
	if !r.IsLeader() {
		// Clients broadcast requests to all replicas (see Client), so the
		// leader has it too. A backup keeps its copy, which is what it
		// executes once a proposal names it, and watches for progress.
		r.file(row.Request, row.digest, known, 0)
		r.unpark(ref)
		return
	}
	r.file(row.Request, row.digest, assigned, 0)
	if t := r.tracer(); t != nil {
		t.Mark(obs.LeaderRecv, req.Key(), r.node.Loop().Now())
	}
	r.order(ref, digested)
	if r.pending.Len() >= r.cfg.BatchSize {
		// A batch cut by size takes the timer with it: the next request
		// starts a full batchDelay of its own.
		r.batchTimer.Cancel()
		r.proposeBatch()
		return
	}
	if !r.batchTimer.Pending() {
		r.batchTimer = r.node.Loop().After(batchDelay, r.propose)
	}
}

// admitted is a request in the leader's queue, by its ref: ready is when the
// leader CPU has digested it and finished ordering it.
type admitted struct {
	RequestRef
	ready sim.Time
}

// order queues ref for the leader's next proposal and starts its ordering
// work on the leader CPU now: validating, bookkeeping and marshalling the
// ref into a proposal, one job per request, served while the batch fills.
// The request's digest is done at digested.
func (r *Replica) order(ref RequestRef, digested sim.Time) {
	cost := r.node.Network().Params().Protocol.OrderCost(refSize)
	r.pending.Push(admitted{ref, max(digested, r.node.CPU.Acquire(cost, nil))})
}

// digest returns the digest of req's operation — what a ref names it by —
// and the instant this replica's CPU has computed it.
func (r *Replica) digest(req Request) (auth.Digest, sim.Time) {
	return auth.Hash(req.Op), r.crypto(auth.DigestCost(r.node.Network().Params().Crypto, len(req.Op)))
}

// file stores req, digested d, in its row and, if the row is new, queues
// the request for the progress timer — which starts watching it if it was
// idle. A row that holds no op yet (a new or a released one) takes a copy of
// req's: the caller's is lent by the message it came in.
func (r *Replica) file(req Request, d auth.Digest, state reqState, seq uint64) {
	id := req.ID()
	row, seen := r.requests[id]
	if row.Op == nil {
		req.Op = r.keep(req.Op)
	}
	r.requests[id] = request{req, d, state, max(row.seq, seq)}
	if seen {
		return
	}
	r.arrivals.Push(id)
	if !r.viewChanging && !r.progress.Pending() {
		r.watchOldest()
	}
}

// opChunk is the size of the slab chunks a replica copies small request ops
// into: one allocation serves many rows, and the collector frees a chunk once
// no row points into it. An op above a quarter chunk is copied alone, so a
// chunk cut short wastes at most a quarter of itself.
const opChunk = 16 << 10

// keep returns the replica's own copy of op. One above a quarter chunk goes
// into a backing no other row shares: the one a row released last, if op
// fits it, else a new allocation. A backing that does not fit is dropped, so
// the free list and the rows never hold more backings than the most rows the
// replica held at one time.
func (r *Replica) keep(op []byte) []byte {
	if len(op) > opChunk/4 {
		if n := len(r.free); n > 0 {
			b := r.free[n-1]
			r.free[n-1], r.free = nil, r.free[:n-1]
			if cap(b) >= len(op) {
				return append(b[:0], op...)
			}
		}
		return bytes.Clone(op)
	}
	if cap(r.ops)-len(r.ops) < len(op) {
		r.ops = make([]byte, 0, opChunk)
	}
	r.ops = append(r.ops, op...)
	return r.ops[len(r.ops)-len(op) : len(r.ops) : len(r.ops)]
}

// release takes back the op a row lets go of: a large op's backing goes
// onto the free list for keep, a small op stays in its slab chunk until the
// collector frees the chunk. The row must hold the op no more.
func (r *Replica) release(op []byte) {
	if len(op) > opChunk/4 {
		r.free = append(r.free, op)
	}
}

// assign moves id's row, if it has one, to state, and to seq if that is the
// later sequence.
func (r *Replica) assign(id RequestID, state reqState, seq uint64) {
	if row, seen := r.requests[id]; seen {
		row.state, row.seq = state, max(row.seq, seq)
		r.requests[id] = row
	}
}

// waiting reports whether id has a row and is yet to execute.
func (r *Replica) waiting(id RequestID) bool {
	row, seen := r.requests[id]
	return seen && row.state != done
}

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

// armProgress starts the progress timer: one ViewTimeout, doubled for each
// consecutive demanded view that failed to install.
func (r *Replica) armProgress() {
	r.progress = r.node.Loop().After(r.cfg.ViewTimeout<<r.failedViews, r.onProgress)
}

// progressExpired: the watched request did not execute in time, or the
// awaited NEW-VIEW never came — then the next view's wait doubles.
func (r *Replica) progressExpired() {
	next := r.view + 1
	if r.viewChanging {
		r.failedViews++
		next = r.demanded + 1
	}
	r.startViewChange(next)
}

// proposeBatch assigns the next sequence number to the pending batch and
// broadcasts the pre-prepare once the leader CPU has served its work: every
// request's ordering, started when it was admitted (see order), and the
// batch digest, started now. So a saturated leader still delays its own
// pipeline — the single-pipeline bottleneck COP spreads across K leaders —
// but a batch that fills while the CPU has cores to spare waits for no
// batch-length job.
func (r *Replica) proposeBatch() {
	if r.stopped || r.pending.Len() == 0 || !r.IsLeader() || r.viewChanging {
		return
	}
	if r.seqNext >= r.stable+r.cfg.LogWindow {
		return // watermark window full; retried after the next checkpoint
	}
	r.seqNext++
	seq := r.seqNext
	// The proposal is built in its cell, its refs in the cell's backing.
	s := r.slotFor(seq)
	refs := s.pp.Refs[:0]
	var ready sim.Time
	for n := min(r.pending.Len(), r.cfg.BatchSize); n > 0; n-- {
		q := r.pending.Pop()
		refs, ready = append(refs, q.RequestRef), max(ready, q.ready)
		r.assign(q.RequestID, assigned, seq)
	}
	s.pp, s.proposed = PrePrepare{View: r.view, Seq: seq, Digest: r.batches.digest(refs), Refs: refs}, true
	ready = max(ready, r.crypto(auth.DigestCost(r.node.Network().Params().Crypto, encodedSize(s.pp))))
	r.unsent = append(r.unsent, unsentProposal{seq: seq, view: r.view, ready: ready})
	r.node.Loop().At(ready, r.sendNext)
	if r.pending.Len() > 0 {
		r.node.Loop().Post(r.propose)
	}
}

// unsentProposal is a proposal whose leader-CPU work is not yet done: its
// sequence, the view it was made in and the instant its work is done.
type unsentProposal struct {
	seq, view uint64
	ready     sim.Time
}

// sendProposal broadcasts the proposal whose work is done. Every proposal
// schedules one call at its ready instant, and the loop fires calls in
// (instant, scheduling) order, so the one due is the unsent proposal with
// the earliest ready instant, the first made among equals.
func (r *Replica) sendProposal() {
	due := 0
	for i, u := range r.unsent {
		if u.ready < r.unsent[due].ready {
			due = i
		}
	}
	u := r.unsent[due]
	r.unsent = slices.Delete(r.unsent, due, due+1)
	// A view change while the proposal was being marshalled makes it
	// stale: the requests keep their rows and the new leader re-proposes
	// them. So does a stable point that passed its sequence meanwhile,
	// which only a state transfer can move there: the cell is not its any
	// more.
	s := r.lookup(u.seq)
	if r.stopped || r.viewChanging || r.view != u.view || s == nil || !s.proposed {
		return
	}
	if t := r.tracer(); t != nil {
		now := r.node.Loop().Now()
		for _, ref := range s.pp.Refs {
			t.Mark(obs.Propose, ref.Key(), now)
		}
	}
	r.broadcast(s.pp)
	r.tryPrepare(u.seq)
}

// accepts reports whether an agreement message for (view, seq) is for the
// installed view and inside the watermark window.
func (r *Replica) accepts(view, seq uint64) bool {
	return view == r.view && !r.viewChanging && r.inWindow(seq)
}

// handlePrePrepare processes a proposal; size is its encoded length as
// received, which the modeled digest check is charged for. pp's refs are
// lent (the replica's decode scratch): an accepted proposal's are copied
// into its cell.
func (r *Replica) handlePrePrepare(sender uint32, pp PrePrepare, size int) {
	if !r.accepts(pp.View, pp.Seq) || sender != r.Leader(pp.View) {
		return // only the view's leader may propose
	}
	// Integrity: the digest must match the carried refs. The MACs cover
	// only the header, so this is what binds the batch. A mismatch is no
	// evidence against the leader — any replica can relay the leader's
	// envelope with a ref altered — so the proposal is dropped, as in
	// Castro & Liskov: a backup that never gets a valid one is covered by
	// its progress timer.
	r.crypto(auth.DigestCost(r.node.Network().Params().Crypto, size))
	if r.batches.digest(pp.Refs) != pp.Digest {
		return
	}
	s := r.slotFor(pp.Seq)
	if s.proposed && s.pp.Digest != pp.Digest && s.pp.View == pp.View {
		// Conflicting proposal for the same (view, seq): Byzantine
		// leader; demand a view change.
		r.startViewChange(r.view + 1)
		return
	}
	if s.proposed && s.pp.View == pp.View || pp.Seq <= r.executed {
		// A repeat, which any replica can replay since its MACs pass. Once
		// executed, this replica has released its copies, and resolving the
		// repeat would drop the slot's proposal and, with it, the rows
		// advanceStable deletes.
		return
	}
	s.propose(pp)
	r.resolve(s)
}

func (r *Replica) handlePrepare(m Prepare) {
	if !r.accepts(m.View, m.Seq) || m.Replica == r.Leader(m.View) {
		return
	}
	s := r.slotFor(m.Seq)
	s.prepares.set(m.Replica, m.Digest)
	r.tryPrepare(m.Seq)
	r.tryCommit(m.Seq)
}

// prepared implements the PBFT predicate: a matching pre-prepare plus 2F
// prepares (from distinct non-leader replicas, possibly including our own).
// A parked proposal is not one yet: this replica could not execute it.
func (r *Replica) prepared(s *slot) bool {
	return s.proposed && !s.parked && s.prepares.count(s.pp.Digest) >= 2*r.cfg.F
}

func (r *Replica) tryPrepare(seq uint64) {
	s := r.lookup(seq)
	if s == nil || s.sentComm || !r.prepared(s) {
		return
	}
	s.sentComm = true
	c := Commit{View: s.pp.View, Seq: seq, Digest: s.pp.Digest, Replica: r.id}
	s.commits.set(r.id, s.pp.Digest)
	r.broadcast(c)
	r.tryCommit(seq)
}

func (r *Replica) handleCommit(m Commit) {
	if !r.accepts(m.View, m.Seq) {
		return
	}
	s := r.slotFor(m.Seq)
	s.commits.set(m.Replica, m.Digest)
	r.tryCommit(m.Seq)
}

// committed requires prepared plus a 2F+1 commit quorum.
func (r *Replica) committedSlot(s *slot) bool {
	return r.prepared(s) && s.commits.count(s.pp.Digest) >= r.cfg.Quorum()
}

func (r *Replica) tryCommit(seq uint64) {
	s := r.lookup(seq)
	if s == nil || !r.committedSlot(s) {
		return
	}
	r.tryExecute()
}

// tryExecute applies committed batches strictly in sequence order.
func (r *Replica) tryExecute() {
	for {
		next := r.executed + 1
		s := r.lookup(next)
		if s == nil || !r.committedSlot(s) {
			return
		}
		r.executed = next
		proto := r.node.Network().Params().Protocol
		// Each request is this replica's own copy: resolve held one for every
		// ref, and a row outlives the slots that name it.
		for _, ref := range s.pp.Refs {
			if t := r.tracer(); t != nil {
				t.Mark(obs.Commit, ref.Key(), r.node.Loop().Now())
			}
			row := r.requests[ref.RequestID]
			r.node.CPU.Delay(proto.ExecRequest)
			result := r.app.Execute(row.Op)
			c := r.client(ref.Client)
			c.last = Reply{View: r.view, Timestamp: ref.Timestamp, Client: ref.Client, Replica: r.id,
				Result: append(c.last.Result[:0], result...)}
			r.sendToClient(c.conn, c.last)
			row.state, row.seq = done, max(row.seq, next)
			r.requests[ref.RequestID] = row
		}
		// Execution only happens in an installed view (never while
		// viewChanging), so the timer here is watching or idle.
		if !r.waiting(r.watched) {
			r.failedViews = 0
			r.watchOldest()
		}
		if r.onExecute != nil {
			r.onExecute(next, r.copies(s.pp.Refs))
		}
		// Only the proposal's sender answers FETCHes for it, so any other
		// replica releases each executed copy no later slot names. The row
		// stays, digest zeroed: a replay of the request matches no ref.
		for _, ref := range s.pp.Refs {
			if row := r.requests[ref.RequestID]; r.Leader(s.pp.View) != r.id && row.seq == next {
				r.release(row.Op)
				row.Op, row.digest = nil, auth.Digest{}
				r.requests[ref.RequestID] = row
			}
		}
		if r.executed%r.cfg.CheckpointEvery == 0 {
			r.takeCheckpoint(r.executed)
		}
	}
}

// handleReadRequest serves the read-only fast path: evaluate the
// operation tentatively against the last-executed state and report the
// result, tagged with the state position it was read from, on the read's
// connection (it starts no client row). No agreement messages are exchanged:
// the client accepts only a result 2F+1 replicas agree on.
func (r *Replica) handleReadRequest(req ReadRequest, conn *msgnet.Peer) {
	if r.stopped {
		return
	}
	proto := r.node.Network().Params().Protocol
	r.node.CPU.Delay(proto.ExecRequest)
	result := r.app.ExecuteReadOnly(req.Op)
	*r.readsServed++
	if t := r.tracer(); t != nil {
		t.Mark(obs.ReadServe, req.Key(), r.node.Loop().Now())
	}
	r.sendToClient(conn, ReadReply{
		Timestamp: req.Timestamp, Client: req.Client, Replica: r.id,
		Executed: r.executed, Result: result,
	})
}

// sendToClient encodes one reply into the replica's scratch and transmits
// it to a client connection (plain payload — client traffic is
// unauthenticated; the client's reply quorum provides the integrity).
func (r *Replica) sendToClient(to *msgnet.Peer, m Message) {
	if r.stopped || to == nil {
		return
	}
	payload := encodeTo(&r.scratch, m)
	r.crypto(auth.Cost(r.node.Network().Params().Crypto, len(payload)))
	r.deferSend(to, msgnet.ClassControl, payload)
}
