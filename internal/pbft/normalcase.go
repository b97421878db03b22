package pbft

import (
	"bytes"
	"slices"

	"rubin/internal/auth"
	"rubin/internal/model"
	"rubin/internal/msgnet"
	"rubin/internal/obs"
	"rubin/internal/sim"
)

// Normal case: request intake, leader batching, the three-phase agreement
// and in-order execution, plus the read-only fast path and replies.

// client is a row of the client table, one per id the cluster's front-ends
// registered (admit): where replies go (handleRequest), the last one (a
// repeat of that request is answered from it: exactly-once; its result is
// copied into a buffer the row reuses, since Execute lends it) and the
// floor, the highest timestamp whose sequence left the watermark window.
// At or below it a request is old news — a quorum executed it — and has no
// row in the request table any more (Castro & Liskov §4.1).
type client struct {
	id    uint32
	conn  *msgnet.Peer
	last  Reply
	floor uint64
}

// admit registers client id: only a registered id's requests are admitted.
func (r *Replica) admit(id uint32) {
	if r.client(id) == nil {
		r.clients = append(r.clients, client{id: id})
	}
}

// client returns id's row, or nil for an id nobody registered. A replica
// serves a handful of front-ends, so a scan beats a hash.
func (r *Replica) client(id uint32) *client {
	for i := range r.clients {
		if r.clients[i].id == id {
			return &r.clients[i]
		}
	}
	return nil
}

// request is a row of the request table, keyed by the request's identity:
// its state — known (stored until a leader orders it), assigned (in this
// leader's queue, or in a slot) or done (executed here) — seq, the latest
// sequence whose slot names the request (0: none yet), and held, the entry
// of the replica's copy slab that holds its copy of the request (0: none; a
// replica that did not propose a done request has released it, see
// tryExecute). advanceStable forgets the row when seq leaves the watermark
// window, so a row outlives every slot that names it, and the table holds
// what is outstanding plus at most a window of batches. A row is 16 bytes
// and holds no pointer: the table grows with the rows a window holds, and
// the copies live in the slab.
type request struct {
	seq   uint64
	held  uint32
	state reqState
}

// reqCopy is an entry of a replica's copy slab: its copy of a request's op
// and the op's digest — what a proposal's ref is checked against, computed
// once, when the copy is filed.
type reqCopy struct {
	op     []byte
	digest auth.Digest
}

// copyChunk is how many entries of the copy slab are made at once: the slab
// grows a chunk at a time as the copies held at once outgrow it, so no copy
// costs an allocation of its own and no entry is ever moved.
const copyChunk = 256

type reqState uint8

const (
	known reqState = iota
	assigned
	done
)

// handleRequest admits a request that arrived on conn. The two tables
// decide, and only here: execution applies whatever a committed batch holds,
// because replicas trim their tables at different times and would diverge
// over one consulted there. A request naming an id no front-end registered
// is dropped before it makes a row. The reply route moves to conn only on
// admission (or is set by the client's first request): a replay does not
// move it.
func (r *Replica) handleRequest(req Request, conn *msgnet.Peer) {
	c := r.client(req.Client)
	if r.stopped || c == nil {
		return
	}
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
	cp := r.copyOf(row)
	if !seen {
		cp.op = req.Op
		cp.digest, digested = r.digest(req)
	}
	ref := RequestRef{req.ID(), cp.digest}
	if !r.IsLeader() {
		// Clients broadcast requests to all replicas (see Client), so the
		// leader has it too. A backup keeps its copy, which is what it
		// executes once a proposal names it, and watches for progress.
		r.file(ref.RequestID, cp.op, cp.digest, known)
		r.unpark(ref)
		return
	}
	r.file(ref.RequestID, cp.op, cp.digest, assigned)
	if t := r.tracer(); t != nil {
		t.Mark(obs.LeaderRecv, req.Key(), r.node.Loop().Now())
	}
	r.order(ref, len(cp.op), digested)
	if r.cut() {
		// A cut takes the timer with it: what it leaves behind waits for
		// a full batchDelay of its own (see proposeBatch).
		r.batchTimer.Cancel()
		r.proposeBatch()
		return
	}
	r.armBatch()
}

// admitted is a request in the leader's queue, by its ref: size is its op's
// length, and ready is when the leader CPU has digested it and finished
// ordering it.
type admitted struct {
	RequestRef
	size  int
	ready sim.Time
}

// order queues ref, whose op is size bytes, for the leader's next proposal
// and starts its ordering work on the leader CPU now: validating,
// bookkeeping and marshalling the ref into a proposal, one job per request,
// served while the batch fills. The request's digest is done at digested.
func (r *Replica) order(ref RequestRef, size int, digested sim.Time) {
	cost := r.node.Network().Params().Protocol.OrderCost(refSize)
	r.pending.Push(admitted{ref, size, max(digested, r.node.CPU.Acquire(model.Order, cost, nil))})
	r.pendingBytes += size
}

// cut reports whether the pending requests fill a batch: BatchSize of them,
// or batchBytes of operations.
func (r *Replica) cut() bool {
	return r.pending.Len() >= r.cfg.BatchSize || r.pendingBytes >= batchBytes
}

// armBatch starts the batch timer for the pending requests unless it runs.
func (r *Replica) armBatch() {
	if r.pending.Len() > 0 && !r.batchTimer.Pending() {
		r.batchTimer = r.node.Loop().After(batchDelay, r.propose)
	}
}

// digest returns the digest of req's operation — what a ref names it by —
// and the instant this replica's CPU has computed it.
func (r *Replica) digest(req Request) (auth.Digest, sim.Time) {
	return auth.Hash(req.Op), r.crypto(model.Digest, auth.DigestCost(r.node.Network().Params().Crypto, len(req.Op)))
}

// file moves id's row to state and, if the row holds no copy yet (a new or
// a released one), files a copy of op, digested d, in the slab: the
// caller's op is lent by the message it came in. A new row is queued for
// the progress timer, which starts watching it if it was idle.
func (r *Replica) file(id RequestID, op []byte, d auth.Digest, state reqState) {
	row, seen := r.requests[id]
	if row.held == 0 {
		row.held = r.hold(op, d)
	}
	row.state = state
	r.requests[id] = row
	if seen {
		return
	}
	r.arrivals.Push(id)
	if !r.viewChanging && !r.progress.Pending() {
		r.watchOldest()
	}
}

// copyOf returns row's copy: a nil op and the zero digest if it holds none.
func (r *Replica) copyOf(row request) reqCopy {
	if row.held == 0 {
		return reqCopy{}
	}
	return *r.entry(row.held)
}

// entry returns the slab entry a row's held index names.
func (r *Replica) entry(held uint32) *reqCopy {
	i := held - 1
	return &r.slab[i/copyChunk][i%copyChunk]
}

// hold puts this replica's own copy of op, digested d, in a slab entry — the
// one vacated last, if any, else the next never used — and returns the
// entry's held index.
func (r *Replica) hold(op []byte, d auth.Digest) uint32 {
	var held uint32
	if n := len(r.vacant); n > 0 {
		held, r.vacant = r.vacant[n-1], r.vacant[:n-1]
	} else {
		if r.made%copyChunk == 0 {
			r.slab = append(r.slab, new([copyChunk]reqCopy))
		}
		r.made++
		held = r.made
	}
	*r.entry(held) = reqCopy{r.keep(op), d}
	return held
}

// vacate takes row's copy out of the slab, if it holds one, and returns its
// op, which the row holds no more.
func (r *Replica) vacate(row *request) []byte {
	if row.held == 0 {
		return nil
	}
	e := r.entry(row.held)
	op := e.op
	*e = reqCopy{}
	r.vacant = append(r.vacant, row.held)
	row.held = 0
	return op
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

// proposeBatch assigns the next sequence number to a batch of the pending
// requests and broadcasts the pre-prepare once the leader CPU has served its
// work: every request's ordering, started when it was admitted (see order),
// and the batch digest, started now. So a saturated leader still delays its
// own pipeline — the single-pipeline bottleneck COP spreads across K
// leaders — but a batch that fills while the CPU has cores to spare waits
// for no batch-length job.
//
// The batch takes the pending requests in order while it holds fewer than
// BatchSize and less than batchBytes of operations, and at least one, so an
// operation above batchBytes is proposed alone. What it leaves behind is
// proposed at once only if it fills a batch itself; else it waits for the
// next cut or the batch timer, never going out as a batch of one.
func (r *Replica) proposeBatch() {
	if r.stopped || r.pending.Len() == 0 || !r.IsLeader() || r.viewChanging {
		return
	}
	if r.seqNext >= r.stable+r.cfg.LogWindow {
		return // watermark window full; retried after the next checkpoint
	}
	r.seqNext++
	seq := r.seqNext
	// The proposal is built in its cell, its refs in the cell's backing,
	// grown once to the most refs the batch can take if it is short: not
	// by append, ref by ref, and not to BatchSize up front, which a ring of
	// small batches would pay for in every cell.
	s := r.slotFor(seq)
	refs := slices.Grow(s.pp.Refs[:0], min(r.pending.Len(), r.cfg.BatchSize))
	var ready sim.Time
	for size := 0; r.pending.Len() > 0 && len(refs) < r.cfg.BatchSize; {
		if size += r.pending.Front().size; len(refs) > 0 && size >= batchBytes {
			break
		}
		q := r.pending.Pop()
		r.pendingBytes -= q.size
		refs, ready = append(refs, q.RequestRef), max(ready, q.ready)
		r.assign(q.RequestID, assigned, seq)
	}
	s.pp, s.proposed = PrePrepare{View: r.view, Seq: seq, Digest: r.batches.digest(refs), Refs: refs}, true
	ready = max(ready, r.crypto(model.Digest, auth.DigestCost(r.node.Network().Params().Crypto, encodedSize(s.pp))))
	r.unsent = append(r.unsent, unsentProposal{seq: seq, view: r.view, ready: ready})
	r.node.Loop().At(ready, r.sendNext)
	if r.cut() {
		r.node.Loop().Post(r.propose)
		return
	}
	r.armBatch()
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
	if pp.View == r.view && sender == r.Leader(pp.View) {
		r.heardLeader()
	}
	if !r.accepts(pp.View, pp.Seq) || sender != r.Leader(pp.View) {
		return // only the view's leader may propose
	}
	// Integrity: the digest must match the carried refs. The MACs cover
	// only the header, so this is what binds the batch. A mismatch is no
	// evidence against the leader — any replica can relay the leader's
	// envelope with a ref altered — so the proposal is dropped, as in
	// Castro & Liskov: a backup that never gets a valid one is covered by
	// its progress timer.
	r.crypto(model.Digest, auth.DigestCost(r.node.Network().Params().Crypto, size))
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
			r.node.CPU.Delay(model.Execute, proto.ExecRequest)
			result := r.app.Execute(r.copyOf(row).op)
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
		// replica releases each executed copy no later slot names — unless
		// a view it demanded is yet to install (it rejoined its view by a
		// state transfer): its VIEW-CHANGE is on file with the others, and
		// that view's leader fetches what its proofs name from it. The row
		// stays, without a copy, so with the zero digest: a replay of the
		// request matches no ref.
		for _, ref := range s.pp.Refs {
			if row := r.requests[ref.RequestID]; r.Leader(s.pp.View) != r.id && row.seq == next && r.demanded <= r.view {
				r.release(r.vacate(&row))
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
	r.node.CPU.Delay(model.Execute, proto.ExecRequest)
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
// it to a client connection. The charge is the MAC PBFT puts on a reply,
// over its whole encoding; no MAC travels, and the client checks none — it
// relies on its reply quorum — until client authentication (ROADMAP
// O13a(b)) lands.
func (r *Replica) sendToClient(to *msgnet.Peer, m Message) {
	if r.stopped || to == nil {
		return
	}
	payload := encodeTo(&r.scratch, m)
	r.crypto(model.MAC, auth.Cost(r.node.Network().Params().Crypto, len(payload)))
	r.deferSend(to, msgnet.ClassControl, payload)
}
