package pbft

import (
	"cmp"
	"slices"

	"rubin/internal/auth"
	"rubin/internal/model"
)

// cpRecord is one of this replica's checkpoints: the sequence, the state
// digest it computed (or adopted) there and the retained state. A base
// record materializes every partition in two dense arrays indexed by
// partition; a delta record holds only the partitions dirtied since the
// previous record, ascending by index, so serving a partition walks the
// records newest-first to the base.
type cpRecord struct {
	seq     uint64
	digest  auth.Digest
	applied uint64 // the application's applied counter at the checkpoint
	header  []byte
	parts   [][]byte      // base: every partition's bytes
	digests []auth.Digest // base: every partition's digest
	delta   []cpPart      // delta: the dirtied partitions, ascending
	base    bool
}

// cpPart is one partition a delta record retains.
type cpPart struct {
	index  int
	data   []byte
	digest auth.Digest
}

// checkpointStore owns everything a replica remembers about checkpoints:
// the group's votes and its own records, which hold the retained state as
// a delta chain: the oldest record is a materialized base holding every
// partition, each later record holds only the partitions dirtied since the
// previous one, and gc folds the chain at the stable point so retention
// stays O(state + recent deltas) rather than O(retained checkpoints ×
// state).
type checkpointStore struct {
	// votes[seq] tallies the digest each envelope-verified sender
	// advertised for seq. Keyed by sequence because a lagging replica must
	// keep votes arbitrarily far ahead of its own window.
	votes map[uint64]tally
	n     int // group size: the cells of a tally
	// records is ascending in seq by construction: checkpoints are taken at
	// the execution point and adopted only beyond it.
	records []*cpRecord

	// Cost accounting (reported by E12): every retained checkpoint's
	// serialized bytes, plus the steady-state subset — the true deltas.
	count, bytes             uint64
	steadyCount, steadyBytes uint64
}

func newCheckpointStore(n int) *checkpointStore {
	return &checkpointStore{votes: make(map[uint64]tally), n: n}
}

// take records this replica's checkpoint at seq, where its state digests
// to d, and retains the state as the next link of the delta chain — only
// the partitions dirtied since the previous record, all of them for the
// first (the chain's base) — and returns the bytes serialized. That is
// also what the caller charges as digest cost, which is what makes the
// checkpoint pause O(dirty state) instead of O(state). What it allocates
// is what it retains: the record, the header and the delta's entries.
func (s *checkpointStore) take(seq uint64, d auth.Digest, ps PartitionedState) int {
	rec := &cpRecord{seq: seq, digest: d, applied: ps.Applied(), header: ps.MarshalHeader()}
	prev := s.latest(seq - 1)
	s.records = append(s.records, rec)
	bytes := len(rec.header)
	if prev == nil {
		n := ps.PartitionCount()
		rec.base, rec.parts, rec.digests = true, make([][]byte, n), make([]auth.Digest, n)
		for i := range n {
			rec.parts[i], rec.digests[i] = ps.MarshalPartition(i), ps.PartitionDigest(i)
			bytes += len(rec.parts[i])
		}
	} else {
		dirty := ps.CheckpointDelta(prev.applied)
		rec.delta = make([]cpPart, len(dirty))
		for j, i := range dirty {
			rec.delta[j] = cpPart{index: i, data: ps.MarshalPartition(i), digest: ps.PartitionDigest(i)}
			bytes += len(rec.delta[j].data)
		}
	}
	s.count++
	s.bytes += uint64(bytes)
	if !rec.base {
		s.steadyCount++
		s.steadyBytes += uint64(bytes)
	}
	return bytes
}

// installBase records a checkpoint adopted through state transfer, its
// state retained as a fresh base, so this replica can serve lagging peers
// in turn.
func (s *checkpointStore) installBase(seq uint64, root auth.Digest, applied uint64, header []byte, digests []auth.Digest, parts [][]byte) {
	s.records = append(s.records, &cpRecord{seq: seq, digest: root, applied: applied, header: header, parts: parts, digests: digests, base: true})
}

// latest returns the newest record at or below seq (nil if none).
func (s *checkpointStore) latest(seq uint64) *cpRecord {
	for i := len(s.records) - 1; i >= 0; i-- {
		if s.records[i].seq <= seq {
			return s.records[i]
		}
	}
	return nil
}

// part materializes one partition of the retained checkpoint at seq — its
// bytes and digest — by walking the delta chain newest-first down to the
// base.
func (s *checkpointStore) part(seq uint64, part int) ([]byte, auth.Digest) {
	for i := len(s.records) - 1; i >= 0; i-- {
		rec := s.records[i]
		switch {
		case rec.seq > seq: // newer than the checkpoint asked for
		case rec.base:
			return rec.parts[part], rec.digests[part]
		default:
			if j, ok := slices.BinarySearchFunc(rec.delta, part, func(p cpPart, part int) int { return cmp.Compare(p.index, part) }); ok {
				return rec.delta[j].data, rec.delta[j].digest
			}
		}
	}
	return nil, auth.Digest{}
}

// vote records the digest an authenticated sender advertised for seq.
// Votes are keyed by the envelope-verified sender: the in-payload Replica
// field is unauthenticated, and a certificate assembled from forged
// identities would let one Byzantine peer authorize a state transfer of
// attacker-chosen state.
func (s *checkpointStore) vote(seq uint64, sender uint32, d auth.Digest) {
	if s.votes[seq] == nil {
		s.votes[seq] = make(tally, s.n)
	}
	s.votes[seq].set(sender, d)
}

// gc drops everything the new stable checkpoint makes unreachable: votes
// at or below it and the records below it — folded first into one
// materialized base record at stable, so retention is one base plus the
// deltas above stable. The fold writes the deltas into the newest base's
// own arrays, which the stable record then takes over: it allocates
// nothing.
func (s *checkpointStore) gc(stable uint64) {
	for seq := range s.votes {
		if seq <= stable {
			delete(s.votes, seq)
		}
	}
	below := 0
	for below < len(s.records) && s.records[below].seq < stable {
		below++
	}
	if below < len(s.records) && s.records[below].seq == stable && !s.records[below].base {
		// Overlay every delta above the newest base in ascending order:
		// the oldest record is always a base, so one is found.
		from := below - 1
		for !s.records[from].base {
			from--
		}
		base, target := s.records[from], s.records[below]
		for _, rec := range s.records[from+1 : below+1] {
			for _, p := range rec.delta {
				base.parts[p.index], base.digests[p.index] = p.data, p.digest
			}
		}
		target.base, target.parts, target.digests, target.delta = true, base.parts, base.digests, nil
	}
	s.records = slices.Delete(s.records, 0, below)
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
		for _, p := range rec.delta {
			total += uint64(len(p.data))
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
	r.crypto(model.Digest, auth.DigestCost(r.node.Network().Params().Crypto, r.cps.take(seq, d, r.app)))
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
	if own := r.cps.latest(m.Seq); own != nil && own.seq == m.Seq && r.cps.votes[m.Seq].count(own.digest) >= r.cfg.Quorum() {
		r.advanceStable(m.Seq)
		return
	}
	if (m.Seq >= r.executed+r.cfg.CheckpointEvery || r.stranded(m.Seq)) && r.cps.votes[m.Seq].max() >= r.cfg.F+1 {
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
		// log and needs no transfer — unless a proposal it parked is at
		// or below m.Seq: the group forgets a proposal's requests with
		// it, so no FETCH can finish that one.
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

// advanceStable moves the watermark window up to the new stable
// checkpoint: the log's cells at or below it read as absent from here on.
// They keep their vote storage for the next lap but not their proposal,
// and the requests it names leave the request table with it, executed here
// or not, releasing the copies their rows still hold: below the stable
// point a quorum executed them, as the clients' floors record.
func (r *Replica) advanceStable(seq uint64) {
	if seq <= r.stable {
		return
	}
	for at := r.stable + 1; at <= seq && r.inWindow(at); at++ {
		s := r.lookup(at)
		if s == nil || !s.proposed {
			continue
		}
		for _, ref := range s.pp.Refs {
			if row := r.requests[ref.RequestID]; row.seq <= at { // not one a later slot names too
				r.release(r.vacate(&row))
				delete(r.requests, ref.RequestID)
			}
			if c := r.client(ref.Client); c != nil { // nil: a parked ref no registered client sent
				c.floor = max(c.floor, ref.Timestamp)
			}
		}
		s.proposed, s.parked = false, false
	}
	r.stable = seq
	r.cps.gc(seq)
	r.fetch.prune(seq)
	if r.IsLeader() && r.pending.Len() > 0 {
		r.node.Loop().Post(r.propose)
	}
}
