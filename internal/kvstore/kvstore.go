// Package kvstore is a deterministic key/value state machine used as the
// replicated application in the execution stage of the BFT experiments:
// identical operation sequences produce identical states and snapshots on
// every replica.
package kvstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

	"rubin/internal/auth"
)

// OpCode identifies a state-machine operation.
type OpCode uint8

// Operations.
const (
	OpPut OpCode = iota + 1
	OpGet
	OpDelete
	// OpScan reads the keys starting with a prefix: the op's key field
	// holds the prefix and its value field an optional decimal result
	// cap. Scans go through the ordered path like every other operation,
	// so they observe one consistent snapshot of the store.
	OpScan
)

// Store is the key/value state machine. It implements pbft.Application
// and pbft.PartitionedState: keys live in MerkleBuckets hash partitions
// (see merkle.go) so checkpoints and state transfer work per bucket.
//
// Each key's cell owns its value's backing: a put copies the value in,
// over the held value's bytes where they fit, so a put to a held key
// allocates nothing and Execute keeps no slice of its op. A get answers
// with the stored bytes, lent until the store's next mutating call
// (pbft.PartitionedState); every encoding the store hands out is a copy.
type Store struct {
	// buckets holds the key/value data, partitioned by bucketOf.
	buckets [MerkleBuckets]bucket

	// 2PC participant state (see txn.go): staged transactions and the
	// write locks they hold. Both are part of the marshaled state, so
	// checkpoints and state transfer carry in-doubt transactions.
	prepared map[string]*preparedTxn
	locks    map[string]string

	applied uint64

	// Per-bucket encoding caches. bucketEnc[i] is the canonical
	// encoding of bucket i (nil marks the bucket dirty — a mutation
	// invalidates only its own bucket, never the others) and
	// bucketDig[i] its digest, valid whenever bucketEnc[i] is non-nil.
	// bucketMod[i] is the applied counter at the bucket's last
	// mutation, which is what CheckpointDelta answers from. Cached
	// slices are never mutated after creation and never aliased into
	// other caches or from a caller's buffer: encodeBucket builds a fresh
	// slice, MarshalState copies bucket encodings into its own buffer, and
	// an installed partition is re-encoded. So MarshalPartition hands a
	// bucket's cache out as it is, for a checkpoint to retain.
	bucketEnc [MerkleBuckets][]byte
	bucketDig [MerkleBuckets]auth.Digest
	bucketMod [MerkleBuckets]uint64

	// preparedEnc caches the staged-2PC section encoding (nil = dirty).
	preparedEnc []byte

	// marshaled caches the full MarshalState concatenation. Any Execute
	// invalidates it (the applied counter is part of the encoding), but
	// rebuilding it only re-encodes dirty buckets.
	marshaled []byte

	keys  []string // scratch: where a bucket encoding or a scan sorts its keys
	delta []int    // scratch: what CheckpointDelta lends
}

// The fixed replies, shared by every Execute: read-only like every result
// (pbft.Application) and capacity-limited, so an append by a caller copies.
var (
	replyOK       = []byte("OK")[:2:2]
	replyNotFound = []byte("NOTFOUND")[:8:8]
	replyLocked   = []byte(Locked)[:len(Locked):len(Locked)]
)

// bucket maps each key of one partition to the cell holding its value. A
// put finds a held key's cell with m[string(key)], a lookup, which makes no
// string; only a key the bucket does not hold costs its string and cell. A
// nil bucket is an empty one.
type bucket map[string]*[]byte

// stored returns key's value in b.
func stored[K string | []byte](b bucket, key K) (v []byte, found bool) {
	if c := b[string(key)]; c != nil {
		return *c, true
	}
	return nil, false
}

// New returns an empty store.
func New() *Store {
	return &Store{
		prepared: make(map[string]*preparedTxn),
		locks:    make(map[string]string),
	}
}

// Applied returns the number of operations executed.
func (s *Store) Applied() uint64 { return s.applied }

// Get reads a key from its bucket, as a copy: how a test inspects a
// replica's store directly (local, not ordered).
func (s *Store) Get(key string) (string, bool) {
	v, ok := stored(s.buckets[bucketOf(key)], key)
	return string(v), ok
}

// put copies value into key's cell, over the held value where it fits, and
// dirties its bucket.
func (s *Store) put(key, value []byte) {
	b := bucketOf(key)
	c := s.buckets[b][string(key)]
	if c == nil {
		if s.buckets[b] == nil {
			s.buckets[b] = make(bucket)
		}
		c = new([]byte)
		s.buckets[b][string(key)] = c
	}
	*c = append((*c)[:0], value...)
	s.touchBucket(b)
}

// del removes a key, dirtying its bucket; it reports whether the key
// existed.
func (s *Store) del(key []byte) bool {
	b := bucketOf(key)
	if s.buckets[b][string(key)] == nil {
		return false
	}
	delete(s.buckets[b], string(key))
	s.touchBucket(b)
	return true
}

// touchBucket marks one bucket dirty at the current applied counter.
func (s *Store) touchBucket(b int) {
	s.bucketEnc[b] = nil
	s.bucketMod[b] = s.applied
	s.marshaled = nil
}

// touchPrepared marks the staged-2PC section dirty.
func (s *Store) touchPrepared() {
	s.preparedEnc = nil
	s.marshaled = nil
}

// appendKeys appends the keys of m with prefix in partition part of parts,
// in map order: every caller sorts what it collects.
func appendKeys(keys []string, m bucket, prefix []byte, part, parts int) []string {
	for k := range m {
		if len(k) >= len(prefix) && k[:len(prefix)] == string(prefix) && PartitionKey(k, parts) == part {
			keys = append(keys, k)
		}
	}
	return keys
}

// EncodeOp serializes an operation for submission through the agreement
// layer.
func EncodeOp(code OpCode, key, value string) []byte {
	return AppendOp(make([]byte, 0, 1+4+len(key)+4+len(value)), code, key, value)
}

// AppendOp appends the serialization EncodeOp makes to buf.
func AppendOp[V string | []byte](buf []byte, code OpCode, key string, value V) []byte {
	return appendStr(appendStr(append(buf, byte(code)), key), value)
}

// DecodeOp parses an operation.
func DecodeOp(op []byte) (code OpCode, key, value string, err error) {
	code, k, v, err := decodeOp(op)
	return code, string(k), string(v), err
}

// decodeOp is the operation decoder: key and value alias op, so a store
// makes a string only of what it keeps.
func decodeOp(op []byte) (code OpCode, key, value []byte, err error) {
	d := dec{buf: op, what: "op"}
	code, key, value = OpCode(d.u8()), d.field(), d.field()
	return code, key, value, d.end()
}

// Execute applies one ordered operation (pbft.Application): op is lent for
// the call, and the reply is read-only and lent until the next mutating call.
func (s *Store) Execute(op []byte) []byte {
	// The applied counter is part of the marshaled state, so the full
	// concatenation goes stale on every operation — but the per-bucket
	// encodings do not: only the mutated key's bucket is re-encoded at
	// the next checkpoint (a read dirties nothing).
	s.marshaled = nil
	s.applied++
	code, key, value, err := decodeOp(op)
	if err != nil {
		return []byte("ERR " + err.Error())
	}
	if reply, ok := s.read(code, key, value); ok {
		return reply
	}
	switch code {
	case OpPut, OpDelete:
		if _, locked := s.locks[string(key)]; locked {
			return replyLocked
		}
		if code == OpPut {
			s.put(key, value)
		} else if !s.del(key) {
			return replyNotFound
		}
		return replyOK
	case OpTxn:
		return s.executeTxn(string(key), value)
	case OpPrepare:
		return s.executePrepare(string(key), value)
	case OpCommit:
		return s.executeCommit(string(key))
	case OpAbort:
		return s.executeAbort(string(key))
	default:
		return []byte("ERR unknown op")
	}
}

// ExecuteReadOnly evaluates a side-effect-free operation against the
// current state without mutating anything — unlike Execute it leaves the
// applied counter and the marshaled-state cache untouched, so tentative
// reads served at different times on different replicas cannot diverge
// their checkpoint digests. Results are byte-identical to what Execute
// would return for the same operation and state (pbft.TentativeReader):
// both answer from read.
func (s *Store) ExecuteReadOnly(op []byte) []byte {
	code, key, value, err := decodeOp(op)
	if err != nil {
		return []byte("ERR " + err.Error())
	}
	if reply, ok := s.read(code, key, value); ok {
		return reply
	}
	return []byte("ERR not read-only")
}

// read answers the three side-effect-free operations; ok is false for
// every other code. It is the only interpreter of OpGet, OpScan and
// OpScanPart, so a tentative read returns exactly what ordered execution
// would (the condition of PBFT's read-only optimisation, Castro & Liskov
// §4.4) by construction.
func (s *Store) read(code OpCode, key, value []byte) (reply []byte, ok bool) {
	switch code {
	case OpGet: // the key indexes the map without being made a string
		return getReply(stored(s.buckets[bucketOf(key)], key)), true
	case OpScan:
		limit, err := scanLimit(value)
		if err != nil {
			return []byte("ERR " + err.Error()), true
		}
		return s.scanPart(key, limit, 0, 1), true
	case OpScanPart:
		return s.executeScanPart(key, value), true
	}
	return nil, false
}

// getReply is the reply to a read of one key, inside a transaction or
// out: the stored value itself, or NOTFOUND.
func getReply(v []byte, found bool) []byte {
	if found {
		return v
	}
	return replyNotFound
}

// scanLimit parses an OpScan's value field: an optional decimal result
// cap, "" and 0 meaning none. PlanOp and read share it, so a limit that
// does not parse gets the same ERR wherever the scan is sent.
func scanLimit[V string | []byte](value V) (int, error) {
	if len(value) == 0 {
		return 0, nil
	}
	n, err := strconv.Atoi(string(value))
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad scan limit %s", value)
	}
	return n, nil
}

// scanPart is the scan loop: up to limit (<= 0: no cap) key=value pairs of
// the keys with prefix in partition part of parts, sorted, joined by
// newlines — sorted in the scratch and counted, then built in one allocation.
func (s *Store) scanPart(prefix []byte, limit, part, parts int) []byte {
	keys := s.keys[:0]
	for i := range s.buckets {
		keys = appendKeys(keys, s.buckets[i], prefix, part, parts)
	}
	s.keys = keys
	slices.Sort(keys)
	if limit > 0 && len(keys) > limit {
		keys = keys[:limit]
	}
	size := max(len(keys)-1, 0) // the newlines
	for _, k := range keys {
		size += len(k) + 1 + len(*s.buckets[bucketOf(k)][k])
	}
	reply := make([]byte, 0, size)
	for i, k := range keys {
		if i > 0 {
			reply = append(reply, '\n')
		}
		reply = append(append(append(reply, k...), '='), *s.buckets[bucketOf(k)][k]...)
	}
	return reply
}

// preparedBytes returns the staged-2PC section encoding, re-encoding
// only if a transaction was staged or released since the last call. The
// returned slice is a cache: read-only for callers.
func (s *Store) preparedBytes() []byte {
	if s.preparedEnc == nil {
		s.preparedEnc = s.encodePrepared()
	}
	return s.preparedEnc
}

// encodePrepared serializes the staged-transaction section in sorted
// transaction-id order: the count, then per transaction the id and its
// sub-operations in sub order (code byte, key, value). Locks are not
// serialized — they are exactly the staged key sets (reads lock too)
// and are rebuilt on unmarshal.
func (s *Store) encodePrepared() []byte {
	ids := s.Prepared()
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(ids)))
	for _, id := range ids {
		buf = appendSubs(appendStr(buf, id), s.prepared[id].subs)
	}
	return buf
}

// MarshalState serializes the full store (pbft.PartitionedState; the state
// fetcher's rollback copy): the applied-operation counter, a partition
// count followed by every bucket's canonical encoding in bucket order,
// and the staged 2PC transactions — a replica recovering mid-transaction
// must learn the in-doubt set, or a later COMMIT would find nothing to
// apply. Rebuilding re-encodes only buckets dirtied since the last
// call; the result is cached until the next operation and must be
// treated as read-only. The buffer is always a fresh allocation (never
// one of the per-bucket caches), so retaining it across later mutations
// is safe.
func (s *Store) MarshalState() []byte {
	if s.marshaled == nil {
		buf := binary.BigEndian.AppendUint64(nil, s.applied)
		buf = binary.BigEndian.AppendUint32(buf, MerkleBuckets)
		for i := range s.buckets {
			buf = append(buf, s.bucketBytes(i)...)
		}
		s.marshaled = append(buf, s.preparedBytes()...)
	}
	return s.marshaled
}

// Snapshot digests the state deterministically (pbft.Application) as the
// Merkle root over the bucket digests combined with the applied counter
// and the staged-2PC section: Hash(applied || merkleRoot(buckets) ||
// Hash(prepared)). Keys are hashed in sorted order within their bucket,
// so replicas with equal contents produce equal digests regardless of
// map iteration order, and the digest covers every byte a transfer
// ships. Unlike a flat digest of MarshalState, recomputation after K
// mutated buckets costs O(K + interior nodes), not O(state) — this is
// what makes frequent checkpoints affordable at large state sizes. The
// tree folds in a fixed array on the stack, so over clean buckets Snapshot
// allocates nothing.
func (s *Store) Snapshot() auth.Digest {
	var level [MerkleBuckets]auth.Digest
	for i := range level {
		level[i] = s.PartitionDigest(i)
	}
	return composeRoot(s.applied, merkleRoot(&level), auth.Hash(s.preparedBytes()))
}

// UnmarshalState replaces the store's contents — key/value data and
// staged 2PC transactions — with a marshaled state. Keys are re-homed
// into their owning buckets regardless of which partition section they
// arrived in, so any decodable input re-marshals canonically.
func (s *Store) UnmarshalState(state []byte) error {
	d := dec{buf: state, what: "state"}
	applied := d.u64()
	if n := d.u32(); d.err == nil && n != MerkleBuckets {
		return fmt.Errorf("kvstore: state has %d partitions (want %d)", n, MerkleBuckets)
	}
	var buckets [MerkleBuckets]bucket
	for b := 0; b < MerkleBuckets && d.err == nil; b++ {
		for npairs := d.u32(); npairs > 0 && d.err == nil; npairs-- {
			k, v := d.str(), bytes.Clone(d.field())
			home := bucketOf(k)
			if buckets[home] == nil {
				buckets[home] = make(bucket)
			}
			buckets[home][k] = &v
		}
	}
	prepared, locks, err := decodePrepared(&d)
	if err != nil {
		return err
	}
	s.install(applied, buckets, prepared, locks)
	return nil
}

// install replaces the whole state, every bucket dirty: caches rebuild on demand.
func (s *Store) install(applied uint64, buckets [MerkleBuckets]bucket, prepared map[string]*preparedTxn, locks map[string]string) {
	*s = Store{buckets: buckets, prepared: prepared, locks: locks, applied: applied}
	for i := range s.bucketMod {
		s.bucketMod[i] = applied
	}
}
