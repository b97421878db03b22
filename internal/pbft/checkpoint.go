package pbft

import (
	"sort"

	"rubin/internal/auth"
)

// cpRecord is one retained checkpoint of a partitioned application. A
// base record materializes every partition; a delta record holds only
// the partitions dirtied since the previous retained record, so serving
// a partition walks the chain newest-first to the base.
type cpRecord struct {
	applied uint64 // the application's applied counter at the checkpoint
	header  []byte
	digests []auth.Digest
	parts   map[int][]byte
	base    bool
}

// checkpointStore owns everything a replica remembers about checkpoints:
// the group's votes, its own digests, and — for partitioned applications —
// the retained state as a delta chain: the oldest retained record is a
// materialized base holding every partition, each later record holds only
// the partitions dirtied since the previous one, and gc folds the chain
// at the stable point so retention stays O(state + recent deltas) rather
// than O(retained checkpoints × state).
type checkpointStore struct {
	// votes[seq][sender] is the digest the envelope-verified sender
	// advertised for seq.
	votes map[uint64]map[uint32]auth.Digest
	// own[seq] is this replica's digest at seq (taken or adopted).
	own     map[uint64]auth.Digest
	records map[uint64]*cpRecord

	// Cost accounting (reported by E12): every retained checkpoint's
	// serialized bytes, plus the steady-state subset — the true deltas.
	count, bytes             uint64
	steadyCount, steadyBytes uint64
}

func newCheckpointStore() *checkpointStore {
	return &checkpointStore{
		votes:   make(map[uint64]map[uint32]auth.Digest),
		own:     make(map[uint64]auth.Digest),
		records: make(map[uint64]*cpRecord),
	}
}

// retain records the application's state at seq as the next link of the
// delta chain — only the partitions dirtied since the previous retained
// checkpoint, all of them for the first (the chain's base) — and returns
// the bytes serialized. That is also what the caller charges as digest
// cost, which is what makes the checkpoint pause O(dirty state) instead
// of O(state).
func (s *checkpointStore) retain(seq uint64, ps PartitionedState) int {
	rec := &cpRecord{
		applied: ps.Applied(),
		header:  ps.MarshalHeader(),
		digests: ps.PartitionDigests(),
		parts:   make(map[int][]byte),
	}
	var dirty []int
	if _, prev := s.latest(seq - 1); prev != nil {
		dirty = ps.CheckpointDelta(prev.applied)
	} else {
		rec.base = true
		dirty = make([]int, ps.PartitionCount())
		for i := range dirty {
			dirty[i] = i
		}
	}
	bytes := len(rec.header)
	for _, b := range dirty {
		part := ps.MarshalPartition(b)
		rec.parts[b] = part
		bytes += len(part)
	}
	s.records[seq] = rec
	s.count++
	s.bytes += uint64(bytes)
	if !rec.base {
		s.steadyCount++
		s.steadyBytes += uint64(bytes)
	}
	return bytes
}

// installBase retains a checkpoint adopted through state transfer as a
// fresh base record, so this replica can serve lagging peers in turn.
func (s *checkpointStore) installBase(seq, applied uint64, header []byte, digests []auth.Digest, parts [][]byte) {
	rec := &cpRecord{applied: applied, header: header, digests: digests, parts: make(map[int][]byte, len(parts)), base: true}
	for i, data := range parts {
		rec.parts[i] = data
	}
	s.records[seq] = rec
}

// latest returns the newest retained record at or below seq (0, nil if
// none).
func (s *checkpointStore) latest(seq uint64) (uint64, *cpRecord) {
	if chain := s.chain(seq); len(chain) > 0 {
		return chain[0], s.records[chain[0]]
	}
	return 0, nil
}

// part materializes one partition of the retained checkpoint at seq by
// walking the delta chain newest-first down to the base.
func (s *checkpointStore) part(seq uint64, part int) []byte {
	for _, at := range s.chain(seq) {
		if data, ok := s.records[at].parts[part]; ok {
			return data
		}
	}
	return nil
}

// chain returns the retained record sequences at or below seq, newest
// first.
func (s *checkpointStore) chain(seq uint64) []uint64 {
	var seqs []uint64
	for at := range s.records {
		if at <= seq {
			seqs = append(seqs, at)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] > seqs[j] })
	return seqs
}

// vote records the digest an authenticated sender advertised for seq.
// Votes are keyed by the envelope-verified sender: the in-payload Replica
// field is unauthenticated, and a certificate assembled from forged
// identities would let one Byzantine peer authorize a state transfer of
// attacker-chosen state.
func (s *checkpointStore) vote(seq uint64, sender uint32, d auth.Digest) {
	set := s.votes[seq]
	if set == nil {
		set = make(map[uint32]auth.Digest)
		s.votes[seq] = set
	}
	set[sender] = d
}

// votesFor counts the senders that advertised digest d for seq.
func (s *checkpointStore) votesFor(seq uint64, d auth.Digest) int {
	return countDigest(s.votes[seq], d)
}

// maxVotes returns the largest number of senders agreeing on any one
// digest for seq. A maximum does not depend on map iteration order.
func (s *checkpointStore) maxVotes(seq uint64) int {
	best := 0
	for _, d := range s.votes[seq] {
		if n := s.votesFor(seq, d); n > best {
			best = n
		}
	}
	return best
}

// gc drops everything the new stable checkpoint makes unreachable: votes
// at or below it, own digests below it, and the delta chain below it —
// folded first into one materialized base record at stable, so retention
// is one base plus the deltas above stable.
func (s *checkpointStore) gc(stable uint64) {
	for seq := range s.votes {
		if seq <= stable {
			delete(s.votes, seq)
		}
	}
	for seq := range s.own {
		if seq < stable {
			delete(s.own, seq)
		}
	}
	if target := s.records[stable]; target != nil && !target.base {
		// Overlay every record up to stable in ascending order: the
		// oldest retained record is always a base, so the merge holds
		// every partition.
		chain := s.chain(stable)
		merged := make(map[int][]byte)
		for i := len(chain) - 1; i >= 0; i-- {
			for part, data := range s.records[chain[i]].parts {
				merged[part] = data
			}
		}
		target.parts = merged
		target.base = true
	}
	for seq := range s.records {
		if seq < stable {
			delete(s.records, seq)
		}
	}
}

// retainedBytes returns the serialized state bytes currently held for
// serving state transfer.
func (s *checkpointStore) retainedBytes() uint64 {
	var total uint64
	for _, rec := range s.records {
		total += uint64(len(rec.header))
		for _, p := range rec.parts {
			total += uint64(len(p))
		}
	}
	return total
}

// Replica: taking, counting and stabilizing checkpoints.

// CheckpointStats returns how many checkpoints this replica retained and
// their total serialized bytes (the data newly retained and digested per
// checkpoint — only the dirty partitions).
func (r *Replica) CheckpointStats() (count, bytes uint64) { return r.cps.count, r.cps.bytes }

// CheckpointSteadyStats returns the steady-state subset of
// CheckpointStats: the delta checkpoints. This is the per-interval cost
// once the base exists — the number E12 pins sublinear in state size.
func (r *Replica) CheckpointSteadyStats() (count, bytes uint64) {
	return r.cps.steadyCount, r.cps.steadyBytes
}

// RetainedStateBytes returns the serialized state bytes currently held
// for serving state transfer (the delta-chain records). The
// bounded-retention regression test asserts this stays O(state), not
// O(retained checkpoints × state).
func (r *Replica) RetainedStateBytes() uint64 { return r.cps.retainedBytes() }

func (r *Replica) takeCheckpoint(seq uint64) {
	d := r.app.Snapshot()
	r.cps.own[seq] = d
	if r.ps != nil {
		bytes := r.cps.retain(seq, r.ps)
		r.crypto(auth.DigestCost(r.node.Network().Params().Crypto, bytes))
	}
	cp := Checkpoint{Seq: seq, Digest: d, Replica: r.id}
	r.recordCheckpoint(r.id, cp)
	r.broadcast(cp)
}

func (r *Replica) recordCheckpoint(sender uint32, m Checkpoint) {
	if m.Seq <= r.stable {
		return
	}
	r.cps.vote(m.Seq, sender, m.Digest)
	// Own digest first: only a quorum on the digest this replica computed
	// itself makes the checkpoint stable here.
	if own, have := r.cps.own[m.Seq]; have && r.cps.votesFor(m.Seq, own) >= r.cfg.Quorum() {
		r.advanceStable(m.Seq)
		return
	}
	if m.Seq >= r.executed+r.cfg.CheckpointEvery && r.cps.maxVotes(m.Seq) >= r.cfg.F+1 {
		// F+1 matching votes mean at least one correct replica
		// executed through m.Seq — at least one full interval beyond
		// our execution point: we missed commits (restarted,
		// partitioned, or far behind) and will not catch up from our
		// own log. Fetch the state instead of stalling. Waiting for a
		// full 2F+1 certificate here deadlocks when F+1 replicas lag
		// together (the laggards withhold exactly the votes the
		// certificate needs); F+1 is safe because adoption
		// independently verifies the fetched state against F+1
		// matching manifests or a full certificate. A replica less
		// than one interval behind is still executing from its own
		// log and needs no transfer.
		if m.Seq > r.fetch.target {
			r.fetch.target = m.Seq
		}
		// A transfer for this very checkpoint may already be waiting
		// for exactly this evidence.
		if r.tryAdoptState() {
			return
		}
		r.requestStateTransfer()
	}
}

// advanceStable garbage-collects the log below the new stable checkpoint.
func (r *Replica) advanceStable(seq uint64) {
	if seq <= r.stable {
		return
	}
	r.stable = seq
	for s := range r.log {
		if s <= seq {
			delete(r.log, s)
		}
	}
	r.cps.gc(seq)
	r.fetch.prune(seq)
	if r.IsLeader() && r.pending.Len() > 0 {
		r.node.Loop().Post(r.proposeBatch)
	}
}
