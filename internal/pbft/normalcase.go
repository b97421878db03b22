package pbft

import (
	"rubin/internal/auth"
	"rubin/internal/msgnet"
	"rubin/internal/obs"
	"rubin/internal/sim"
)

// Normal case: request intake, leader batching, the three-phase agreement
// and in-order execution, plus the read-only fast path and replies.

// tally holds at most one vote per replica, indexed by replica id: a
// replica that votes again replaces its vote, and counting walks the ids
// in order.
type tally []struct {
	cast   bool
	digest auth.Digest
}

// set records id's vote; an id outside the group has no cell.
func (t tally) set(id uint32, d auth.Digest) {
	if int(id) < len(t) {
		t[id].cast, t[id].digest = true, d
	}
}

// count returns how many replicas voted for d.
func (t tally) count(d auth.Digest) int {
	n := 0
	for _, v := range t {
		if v.cast && v.digest == d {
			n++
		}
	}
	return n
}

// max returns the largest number of replicas agreeing on any one digest.
func (t tally) max() int {
	best := 0
	for _, v := range t {
		if v.cast {
			best = max(best, t.count(v.digest))
		}
	}
	return best
}

// slot is one sequence number's agreement state: a cell of the replica's
// log, tagged with the sequence it currently holds (0: none).
type slot struct {
	seq      uint64
	pp       *PrePrepare
	prepares tally
	commits  tally
	sentPrep bool
	sentComm bool
}

// reset hands the cell to seq with no agreement state. The tallies keep
// their storage: a log that has wrapped once allocates nothing per slot.
func (s *slot) reset(seq uint64) {
	clear(s.prepares)
	clear(s.commits)
	*s = slot{seq: seq, prepares: s.prepares, commits: s.commits}
}

// inWindow is the watermark rule h < seq <= h+L. It admits one sequence per
// residue of LogWindow, so the log is a ring of LogWindow cells indexed by
// seq % LogWindow and advancing the stable point sweeps nothing.
func (r *Replica) inWindow(seq uint64) bool {
	return seq > r.stable && seq-r.stable <= r.cfg.LogWindow
}

// lookup returns seq's slot, or nil if the log holds none: a cell answers
// only for the sequence it is tagged with and only inside the window, so
// what the window's previous lap left behind reads as absent.
func (r *Replica) lookup(seq uint64) *slot {
	if s := r.log[seq%r.cfg.LogWindow]; s != nil && s.seq == seq && r.inWindow(seq) {
		return s
	}
	return nil
}

// slotFor returns seq's slot, claiming its cell if another lap's sequence
// (or nothing) holds it. Outside the window there is no cell to claim.
func (r *Replica) slotFor(seq uint64) *slot {
	if !r.inWindow(seq) {
		return nil
	}
	s := r.log[seq%r.cfg.LogWindow]
	if s == nil {
		s = &slot{prepares: make(tally, r.cfg.N), commits: make(tally, r.cfg.N)}
		r.log[seq%r.cfg.LogWindow] = s
	}
	if s.seq != seq {
		s.reset(seq)
	}
	return s
}

// client is a row of the client table: where the client's replies go, the
// last one (a repeat of that request is answered from it: exactly-once) and
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

// request is a row of the request table: known (stored until a leader orders
// it), assigned (in this leader's queue, or in slot seq of the installed
// view) or done (executed here at seq). advanceStable forgets the row when
// seq leaves the watermark window, so the table holds what is outstanding
// plus at most a window of batches.
type request struct {
	Request
	state reqState
	seq   uint64
}

type reqState uint8

const (
	known reqState = iota
	assigned
	done
)

// handleRequest admits a request. The two tables decide, and only here:
// execution applies whatever a committed batch holds, because replicas trim
// their tables at different times and would diverge over one consulted there.
func (r *Replica) handleRequest(req Request) {
	if r.stopped {
		return
	}
	c := r.client(req.Client)
	if c.last.Timestamp == req.Timestamp { // timestamps start at 1
		r.sendToClient(c, c.last)
		return
	}
	if row, seen := r.requests[req.ID()]; req.Timestamp <= c.floor || seen && row.state != known {
		return
	}
	if !r.IsLeader() {
		// Clients broadcast requests to all replicas (see Client), so
		// the leader already has it; backups only watch for progress.
		r.file(req, known, 0)
		return
	}
	r.file(req, assigned, 0)
	if t := r.tracer(); t != nil {
		t.Mark(obs.LeaderRecv, req.Key(), r.node.Loop().Now())
	}
	r.order(req)
	if r.pending.Len() >= r.cfg.BatchSize {
		r.proposeBatch()
		return
	}
	if !r.batchTimer.Pending() {
		r.batchTimer = r.node.Loop().After(r.cfg.BatchDelay, r.proposeBatch)
	}
}

// admitted is a request in the leader's queue: ready is when the leader CPU
// finishes ordering it.
type admitted struct {
	Request
	ready sim.Time
}

// order queues req for the leader's next proposal and starts its ordering
// work on the leader CPU now: validating, bookkeeping and marshalling it
// into a proposal, one job per request, served while the batch fills.
func (r *Replica) order(req Request) {
	cost := r.node.Network().Params().Protocol.OrderCost(len(req.Op))
	r.pending.Push(admitted{req, r.node.CPU.Acquire(cost, nil)})
}

// file writes req's row and, if it is the first, queues the request for the
// progress timer — which starts watching it if it was idle.
func (r *Replica) file(req Request, state reqState, seq uint64) {
	id := req.ID()
	_, seen := r.requests[id]
	r.requests[id] = request{req, state, seq}
	if seen {
		return
	}
	r.arrivals.Push(id)
	if !r.viewChanging && !r.progress.Pending() {
		r.watchOldest()
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
	batch := make([]Request, min(r.pending.Len(), r.cfg.BatchSize))
	var ready sim.Time
	for i := range batch {
		q := r.pending.Pop()
		batch[i], ready = q.Request, max(ready, q.ready)
	}
	r.seqNext++
	seq := r.seqNext
	pp := PrePrepare{View: r.view, Seq: seq, Digest: r.batches.digest(batch), Batch: batch}
	ready = max(ready, r.crypto(auth.DigestCost(r.node.Network().Params().Crypto, encodedSize(pp))))
	r.slotFor(seq).pp = &pp
	r.node.Loop().At(ready, func() {
		// A view change while the proposal was being marshalled makes it
		// stale: the requests keep their rows and the new leader
		// re-proposes them.
		if r.stopped || r.viewChanging || r.view != pp.View {
			return
		}
		if t := r.tracer(); t != nil {
			now := r.node.Loop().Now()
			for _, req := range pp.Batch {
				t.Mark(obs.Propose, req.Key(), now)
			}
		}
		r.broadcast(pp)
		r.tryPrepare(seq)
	})
	if r.pending.Len() > 0 {
		r.node.Loop().Post(r.proposeBatch)
	}
}

// ProposeHeartbeat makes a leader propose empty batches for every
// unassigned sequence up to and including upTo — a ranged fill: one call
// covers a contiguous run of holes, and the resulting agreements run
// pipelined (all pre-prepares broadcast back-to-back) instead of one full
// three-phase round per slot. It never proposes past upTo: if proposals at
// or beyond upTo are already in flight the call is a no-op (otherwise
// executors waiting on in-flight commits would mint ever-higher sequence
// numbers and the merge would never converge). Reptor's executor uses this
// to fill holes in the merged global order when an instance is idle.
// It returns the number of slots proposed.
func (r *Replica) ProposeHeartbeat(upTo uint64) int {
	if r.stopped || !r.IsLeader() || r.viewChanging {
		return 0
	}
	proposed := 0
	for r.seqNext < upTo && r.seqNext < r.stable+r.cfg.LogWindow {
		r.seqNext++
		seq := r.seqNext
		pp := PrePrepare{View: r.view, Seq: seq, Digest: r.batches.digest(nil)}
		r.slotFor(seq).pp = &pp
		r.broadcast(pp)
		proposed++
	}
	// Prepare after all proposals are out so the fill is one pipelined
	// round of messages rather than interleaved per-slot rounds.
	for i := proposed; i > 0; i-- {
		r.tryPrepare(r.seqNext - uint64(i) + 1)
	}
	return proposed
}

// accepts reports whether an agreement message for (view, seq) is for the
// installed view and inside the watermark window.
func (r *Replica) accepts(view, seq uint64) bool {
	return view == r.view && !r.viewChanging && r.inWindow(seq)
}

// handlePrePrepare processes a proposal; size is its encoded length as
// received, which the modeled digest check is charged for.
func (r *Replica) handlePrePrepare(sender uint32, pp PrePrepare, size int) {
	if !r.accepts(pp.View, pp.Seq) || sender != r.Leader(pp.View) {
		return // only the view's leader may propose
	}
	// Integrity: the digest must match the carried batch. The MACs cover
	// only the header, so this is what binds the batch. A mismatch is no
	// evidence against the leader — any replica can relay the leader's
	// envelope with its batch altered — so the proposal is dropped, as in
	// Castro & Liskov: a backup that never gets a valid one is covered by
	// its progress timer.
	r.crypto(auth.DigestCost(r.node.Network().Params().Crypto, size))
	if r.batches.digest(pp.Batch) != pp.Digest {
		return
	}
	s := r.slotFor(pp.Seq)
	if s.pp != nil && s.pp.Digest != pp.Digest && s.pp.View == pp.View {
		// Conflicting proposal for the same (view, seq): Byzantine
		// leader; demand a view change.
		r.startViewChange(r.view + 1)
		return
	}
	s.pp = &pp
	for _, req := range pp.Batch {
		r.file(req, assigned, pp.Seq) // watch progress even if first seen here
	}
	if !s.sentPrep {
		s.sentPrep = true
		prep := Prepare{View: pp.View, Seq: pp.Seq, Digest: pp.Digest, Replica: r.id}
		s.prepares.set(r.id, pp.Digest)
		r.broadcast(prep)
	}
	r.tryPrepare(pp.Seq)
	r.tryCommit(pp.Seq)
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
func (r *Replica) prepared(s *slot) bool {
	return s.pp != nil && s.prepares.count(s.pp.Digest) >= 2*r.cfg.F
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
		for _, req := range s.pp.Batch {
			if t := r.tracer(); t != nil {
				t.Mark(obs.Commit, req.Key(), r.node.Loop().Now())
			}
			r.node.CPU.Delay(proto.ExecRequest)
			result := r.app.Execute(req.Op)
			c := r.client(req.Client)
			c.last = Reply{View: r.view, Timestamp: req.Timestamp, Client: req.Client, Replica: r.id, Result: result}
			r.sendToClient(c, c.last)
			r.requests[req.ID()] = request{req, done, next}
		}
		// Execution only happens in an installed view (never while
		// viewChanging), so the timer here is watching or idle.
		if !r.waiting(r.watched) {
			r.failedViews = 0
			r.watchOldest()
		}
		if r.onExecute != nil {
			r.onExecute(next, s.pp.Batch)
		}
		if r.executed%r.cfg.CheckpointEvery == 0 {
			r.takeCheckpoint(r.executed)
		}
	}
}

// handleReadRequest serves the read-only fast path: evaluate the
// operation tentatively against the last-executed state and report the
// result tagged with the state position it was read from. No agreement
// messages are exchanged — the client is responsible for only accepting
// a result 2F+1 replicas agree on. Applications without TentativeReader
// support never answer; the client's timeout falls the read back to the
// ordered path.
func (r *Replica) handleReadRequest(req ReadRequest) {
	if r.stopped {
		return
	}
	tr, ok := r.app.(TentativeReader)
	if !ok {
		return
	}
	proto := r.node.Network().Params().Protocol
	r.node.CPU.Delay(proto.ExecRequest)
	result := tr.ExecuteReadOnly(req.Op)
	*r.readsServed++
	if t := r.tracer(); t != nil {
		t.Mark(obs.ReadServe, req.Key(), r.node.Loop().Now())
	}
	r.sendToClient(r.client(req.Client), ReadReply{
		Timestamp: req.Timestamp, Client: req.Client, Replica: r.id,
		Executed: r.executed, Result: result,
	})
}

// sendToClient encodes one reply into the replica's scratch and transmits
// it to a client connection (plain payload — client traffic is
// unauthenticated; the client's reply quorum provides the integrity).
func (r *Replica) sendToClient(to *client, m Message) {
	if r.stopped || to.conn == nil {
		return
	}
	payload := encodeTo(&r.scratch, m)
	r.crypto(auth.Cost(r.node.Network().Params().Crypto, len(payload)))
	r.deferSend(r.faults.SendDelay, to.conn, msgnet.ClassControl, payload, nil)
}
