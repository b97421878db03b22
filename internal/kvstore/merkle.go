package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"

	"rubin/internal/auth"
)

// The keyspace is partitioned into a fixed-arity Merkle tree over
// PartitionKey hash buckets (the PBFT hierarchical state partition,
// Castro & Liskov §6.3). Each bucket owns the keys PartitionKey assigns
// to it and carries a cached canonical encoding plus its digest; a
// mutation dirties only its own bucket, so a checkpoint re-encodes and
// re-hashes O(dirty buckets) instead of the whole store, and a lagging
// replica fetches only the buckets whose digests diverge from a
// quorum-certified root.
const (
	// MerkleBuckets is the number of leaf partitions. It is part of the
	// state encoding and the digest definition: all replicas must agree
	// on it, so it is a constant, not a Config knob.
	MerkleBuckets = 256

	// MerkleArity is the fan-in of interior tree nodes: 256 leaves hash
	// into 16 interior digests which hash into the tree root.
	MerkleArity = 16
)

// bucketOf returns the Merkle leaf bucket owning a key.
func bucketOf[K string | []byte](key K) int { return PartitionKey(key, MerkleBuckets) }

// PartitionCount returns the number of Merkle leaf partitions
// (pbft.PartitionedState).
func (s *Store) PartitionCount() int { return MerkleBuckets }

// PartitionDigest returns one bucket's current leaf digest, re-encoding
// the bucket first if a mutation dirtied it (pbft.PartitionedState).
func (s *Store) PartitionDigest(part int) auth.Digest {
	s.bucketBytes(part)
	return s.bucketDig[part]
}

// CheckpointDelta returns the buckets mutated by any operation applied
// after the store's applied counter read since — the partitions a
// checkpoint taken now must re-serialize relative to a checkpoint taken
// at since (pbft.PartitionedState). Indices ascend. The slice is the
// store's scratch, valid until the next CheckpointDelta.
func (s *Store) CheckpointDelta(since uint64) []int {
	s.delta = s.delta[:0]
	for i := range s.bucketMod {
		if s.bucketMod[i] > since {
			s.delta = append(s.delta, i)
		}
	}
	return s.delta
}

// MarshalPartition serializes one bucket in canonical form — pair count,
// then the pairs in sorted key order (pbft.PartitionedState); auth.Hash of
// it equals the bucket's leaf digest. It is the bucket's cache itself:
// read-only, and safe to retain, since no cached slice is ever written.
func (s *Store) MarshalPartition(part int) []byte {
	if part < 0 || part >= MerkleBuckets {
		return nil
	}
	return s.bucketBytes(part)
}

// MarshalHeader serializes the non-partitioned remainder of the state:
// the applied-operation counter and the staged 2PC transaction section
// (pbft.PartitionedState). Together with the leaf digests it determines
// the root: ComposeRoot(MarshalHeader(), every PartitionDigest) ==
// Snapshot().
func (s *Store) MarshalHeader() []byte {
	prepared := s.preparedBytes()
	buf := binary.BigEndian.AppendUint64(make([]byte, 0, 8+len(prepared)), s.applied)
	return append(buf, prepared...)
}

// ComposeRoot recomputes the root digest a store with the given header
// and leaf digests would report from Snapshot (pbft.PartitionedState).
// It is stateless: a fetcher uses it to check a transfer manifest for
// self-consistency before requesting any partition, and to verify the
// assembled state against the quorum-certified root. A malformed header
// or digest count yields the zero digest, which no honest replica ever
// certifies (roots are hash outputs).
func (s *Store) ComposeRoot(header []byte, digests []auth.Digest) auth.Digest {
	d := dec{buf: header, what: "transfer header"}
	applied := d.u64()
	if d.err != nil || len(digests) != MerkleBuckets {
		return auth.Digest{}
	}
	level := [MerkleBuckets]auth.Digest(digests)
	return composeRoot(applied, merkleRoot(&level), auth.Hash(d.buf))
}

// composeRoot combines the three state components into the root digest:
// Hash(applied || tree root || prepared-section digest).
func composeRoot(applied uint64, tree auth.Digest, prepared auth.Digest) auth.Digest {
	buf := make([]byte, 0, 8+2*auth.DigestSize)
	buf = binary.BigEndian.AppendUint64(buf, applied)
	buf = append(buf, tree[:]...)
	buf = append(buf, prepared[:]...)
	return auth.Hash(buf)
}

// merkleRoot folds the leaf digests up the fixed-arity tree in place:
// each interior node hashes the concatenation of its MerkleArity children
// (MerkleBuckets is a power of MerkleArity) and overwrites the first slot
// of its level, which no later node of that level reads.
func merkleRoot(level *[MerkleBuckets]auth.Digest) auth.Digest {
	var buf [MerkleArity * auth.DigestSize]byte
	for n := MerkleBuckets / MerkleArity; n > 0; n /= MerkleArity {
		for j := range n {
			for k, d := range level[j*MerkleArity : (j+1)*MerkleArity] {
				copy(buf[k*auth.DigestSize:], d[:])
			}
			level[j] = auth.Hash(buf[:])
		}
	}
	return level[0]
}

// ApplyPartition replaces one bucket's contents with a serialized
// partition (pbft.PartitionedState). The encoding must be canonical —
// strictly ascending keys that all belong to the bucket — so that
// re-marshaling reproduces the input byte for byte and the bucket digest
// equals auth.Hash of it. The store is unchanged on error.
func (s *Store) ApplyPartition(part int, data []byte) error {
	if part < 0 || part >= MerkleBuckets {
		return fmt.Errorf("kvstore: partition %d out of range", part)
	}
	m, err := decodeBucket(part, data)
	if err != nil {
		return err
	}
	s.buckets[part] = m
	s.touchBucket(part) // canonical: re-encoding it reproduces data
	return nil
}

// decodeBucket parses one bucket encoding, enforcing canonical form:
// strictly ascending keys, every key owned by the bucket, no trailing
// bytes.
func decodeBucket(part int, data []byte) (bucket, error) {
	d := dec{buf: data, what: "partition"}
	npairs := d.u32()
	m := make(bucket, min(npairs, 1<<16))
	// The cells in one allocation: a pair takes at least its two length
	// prefixes, so more than the data could hold is a decoding error.
	cells := make([][]byte, 0, min(npairs, uint32(len(data)/8)))
	for prev := ""; npairs > 0 && d.err == nil; npairs-- {
		k, v := d.str(), bytes.Clone(d.field())
		if d.err != nil {
			break
		}
		if len(m) > 0 && k <= prev {
			return nil, fmt.Errorf("kvstore: partition keys not strictly sorted (%q after %q)", k, prev)
		}
		if bucketOf(k) != part {
			return nil, fmt.Errorf("kvstore: key %q does not belong to partition %d", k, part)
		}
		prev = k
		cells = append(cells, v)
		m[k] = &cells[len(cells)-1]
	}
	return m, d.end()
}

// ApplyTransfer atomically replaces the whole store from a transfer
// header plus one serialized partition per bucket
// (pbft.PartitionedState). Everything is validated before anything is
// installed: on error the store is unchanged.
func (s *Store) ApplyTransfer(header []byte, parts [][]byte) error {
	if len(parts) != MerkleBuckets {
		return fmt.Errorf("kvstore: transfer has %d partitions (want %d)", len(parts), MerkleBuckets)
	}
	d := dec{buf: header, what: "transfer header"}
	applied := d.u64()
	prepared, locks, err := decodePrepared(&d)
	if err != nil {
		return err
	}
	var buckets [MerkleBuckets]bucket
	for i, p := range parts {
		if buckets[i], err = decodeBucket(i, p); err != nil {
			return fmt.Errorf("kvstore: transfer partition %d: %w", i, err)
		}
	}
	s.install(applied, buckets, prepared, locks)
	return nil
}

// decodePrepared parses the staged-2PC section (the byte layout of
// encodePrepared) — the last thing in every layout that carries it, so it
// also rejects trailing bytes — and rebuilds the lock table from the
// staged key sets.
func decodePrepared(d *dec) (map[string]*preparedTxn, map[string]string, error) {
	prepared := make(map[string]*preparedTxn)
	locks := make(map[string]string)
	for ntxns := d.u32(); ntxns > 0 && d.err == nil; ntxns-- {
		id, subs := d.str(), d.subs()
		if d.err != nil {
			break
		}
		if _, dup := prepared[id]; dup {
			return nil, nil, fmt.Errorf("kvstore: duplicate staged txn %q", id)
		}
		if err := validateSubs(subs); err != nil {
			return nil, nil, err
		}
		for _, sub := range subs {
			if holder, locked := locks[sub.Key]; locked && holder != id {
				return nil, nil, fmt.Errorf("kvstore: staged txns %q and %q both lock %q", holder, id, sub.Key)
			}
			locks[sub.Key] = id
		}
		prepared[id] = &preparedTxn{subs: subs}
	}
	return prepared, locks, d.end()
}

// bucketBytes returns the canonical encoding of one bucket, re-encoding
// it only if a mutation dirtied it since the last encoding. The returned
// slice is the cache itself: read-only for callers.
func (s *Store) bucketBytes(i int) []byte {
	if s.bucketEnc[i] == nil {
		s.bucketEnc[i] = s.encodeBucket(s.buckets[i])
		s.bucketDig[i] = auth.Hash(s.bucketEnc[i])
	}
	return s.bucketEnc[i]
}

// encodeBucket serializes one bucket map in canonical form, in one
// allocation of its exact size: the keys are sorted in the scratch.
func (s *Store) encodeBucket(m bucket) []byte {
	s.keys = appendKeys(s.keys[:0], m, nil, 0, 1)
	slices.Sort(s.keys)
	size := 4
	for _, k := range s.keys {
		size += 4 + len(k) + 4 + len(*m[k])
	}
	buf := binary.BigEndian.AppendUint32(make([]byte, 0, size), uint32(len(s.keys)))
	for _, k := range s.keys {
		buf = appendStr(appendStr(buf, k), *m[k])
	}
	return buf
}
