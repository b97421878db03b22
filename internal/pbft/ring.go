package pbft

import "rubin/internal/auth"

// The log: a ring of LogWindow cells, each holding one sequence's
// agreement state and owning the storage that state needs — its vote
// tallies and its proposal's refs — from one lap to the next.

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
// log, tagged with the sequence it currently holds (0: none). pp is the
// cell's proposal while proposed is set; its Refs sit in a backing the cell
// keeps from lap to lap. A proposal is parked while this replica lacks a
// copy of a request it names (see resolve); a parked slot neither prepares
// nor executes.
type slot struct {
	seq      uint64
	pp       PrePrepare
	proposed bool
	parked   bool
	prepares tally
	commits  tally
	sentPrep bool
	sentComm bool
}

// reset hands the cell to seq with no agreement state. The tallies and the
// refs' backing keep their storage: a log that has wrapped once allocates
// nothing per slot.
func (s *slot) reset(seq uint64) {
	clear(s.prepares)
	clear(s.commits)
	*s = slot{seq: seq, pp: PrePrepare{Refs: s.pp.Refs[:0]}, prepares: s.prepares, commits: s.commits}
}

// propose makes pp the cell's proposal, its refs copied into the cell's
// backing: the caller's are lent (a decode scratch, a NEW-VIEW).
func (s *slot) propose(pp PrePrepare) {
	refs := append(s.pp.Refs[:0], pp.Refs...)
	s.pp, s.proposed = pp, true
	s.pp.Refs = refs
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
	i := seq % r.cfg.LogWindow
	if r.log[i] == nil {
		r.growLog(i)
	}
	s := r.log[i]
	if s.seq != seq {
		s.reset(seq)
	}
	return s
}

// cellChunk is how many cells of the ring are made at once.
const cellChunk = 16

// growLog makes the chunk of cells that index i falls in, the first time a
// sequence reaches it: the cells in one allocation and their tallies in
// another. The ring fills chunk by chunk as a run's sequences reach it, so a
// short run does not pay for the whole window.
func (r *Replica) growLog(i uint64) {
	lo := i - i%cellChunk
	cells := make([]slot, min(cellChunk, r.cfg.LogWindow-lo))
	n := r.cfg.N
	votes := make(tally, 2*n*len(cells))
	for k := range cells {
		v := votes[2*n*k:]
		cells[k].prepares, cells[k].commits = v[:n:n], v[n:2*n:2*n]
		r.log[lo+uint64(k)] = &cells[k]
	}
}
