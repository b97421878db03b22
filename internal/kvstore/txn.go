package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Transaction and partition operations. The shard layer partitions the
// keyspace across independent consensus groups; multi-key operations
// commit through these state-machine ops so atomicity is decided inside
// the replicated logs rather than by a trusted coordinator:
//
//   - OpTxn executes a multi-key read/write transaction atomically in one
//     ordered operation — the one-phase fast path when every key lives in
//     one group.
//   - OpPrepare stages a transaction's writes and write-locks its keys
//     (votes PREPARED), or votes ABORTED on a lock conflict (no-wait, so
//     2PC cannot deadlock). Reads execute at prepare time, under the
//     locks.
//   - OpCommit applies the staged writes and releases the locks.
//   - OpAbort discards the staged writes and releases the locks.
//   - OpScanPart is a partition-filtered scan: it returns only the
//     matching keys that PartitionKey assigns to one partition, so a
//     router can scatter a scan across groups (shards or COP instances) and
//     merge per-partition results that are each deterministic.
//
// Single-key writes and deletes that hit a write-locked key reply
// "LOCKED" — a retryable condition the router backs off on — so a
// prepared transaction's staged state can never be torn by interleaved
// single-key traffic.
const (
	OpTxn OpCode = iota + 16
	OpPrepare
	OpCommit
	OpAbort
	OpScanPart
)

// Locked is the reply to a single-key write/delete (or one-phase OpTxn)
// that conflicts with a prepared transaction's write locks. The caller
// retries after a backoff; the condition clears when the holding
// transaction commits or aborts.
const Locked = "LOCKED"

// Transaction reply statuses (see EncodeTxnResult).
const (
	TxnCommitted = "COMMITTED"
	TxnPrepared  = "PREPARED"
	TxnAborted   = "ABORTED"
)

// TxnSub is one sub-operation of a multi-key transaction: an OpGet or an
// OpPut on a single key.
type TxnSub struct {
	Code  OpCode
	Key   string
	Value string
}

// PartitionKey deterministically assigns a key to one of parts hash
// ranges: the 32-bit FNV-1a hash space is split into parts equal ranges
// and the key belongs to the range its hash falls in. This is THE
// partitioning function of the repository — the shard router (the
// front-end of shards and COP groups alike) and the partition-filtered
// scan use it, so "who owns this key" has exactly one answer everywhere.
//
// Range partitioning keys off the hash's upper bits, and FNV-1a's upper
// bits correlate badly across near-identical inputs (workload key names
// differ only in trailing digits — raw FNV left whole shards empty). A
// murmur3-style finalizer avalanches the bits before the range split. The
// key may be the bytes of one in an encoded operation, which a replica thus
// routes without making it a string.
func PartitionKey[K string | []byte](key K, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := uint32(2166136261) // FNV-1a, 32-bit
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return int(uint64(h) * uint64(parts) >> 32)
}

// OpKeys returns the state-machine keys an encoded operation touches —
// the single key of a put/get/delete, the prefix of a scan (its routing
// key), or the sub-operation keys of a transaction (deduplicated, in
// first-appearance order). It errors on operations that do not name
// their keys (OpCommit/OpAbort act on previously staged state).
func OpKeys(op []byte) ([]string, error) {
	code, key, value, err := DecodeOp(op)
	if err != nil {
		return nil, err
	}
	switch code {
	case OpPut, OpGet, OpDelete, OpScan, OpScanPart:
		return []string{key}, nil
	case OpTxn, OpPrepare:
		subs, err := DecodeTxnSubs([]byte(value))
		if err != nil {
			return nil, err
		}
		seen := make(map[string]bool, len(subs))
		var keys []string
		for _, sub := range subs {
			if !seen[sub.Key] {
				seen[sub.Key] = true
				keys = append(keys, sub.Key)
			}
		}
		return keys, nil
	}
	return nil, fmt.Errorf("kvstore: op %d does not name its keys", code)
}

// EncodeTxn encodes a one-phase multi-key transaction (OpTxn). The key
// field carries the transaction id (used only for reporting; the
// one-phase path needs no staging).
func EncodeTxn(id string, subs []TxnSub) []byte {
	return EncodeOp(OpTxn, id, string(appendSubs(nil, subs)))
}

// EncodePrepare encodes the PREPARE of transaction id carrying the
// sub-operations one participant group is responsible for.
func EncodePrepare(id string, subs []TxnSub) []byte {
	return EncodeOp(OpPrepare, id, string(appendSubs(nil, subs)))
}

// EncodeCommit encodes the COMMIT decision for transaction id.
func EncodeCommit(id string) []byte { return EncodeOp(OpCommit, id, "") }

// EncodeAbort encodes the ABORT decision for transaction id.
func EncodeAbort(id string) []byte { return EncodeOp(OpAbort, id, "") }

// DecodeTxnSubs parses a sub-operation list (the layout of appendSubs).
func DecodeTxnSubs(raw []byte) ([]TxnSub, error) {
	d := dec{buf: raw, what: "txn subs"}
	subs := d.subs()
	if err := d.end(); err != nil {
		return nil, err
	}
	return subs, nil
}

// txnResultMarker leads every transaction reply so it can never be
// confused with a plain single-key reply (or with Locked).
const txnResultMarker = 'T'

// EncodeTxnResult encodes a transaction reply: the status (TxnCommitted,
// TxnPrepared or TxnAborted) plus one result per sub-operation, in
// sub-operation order. An aborted reply carries no results.
func EncodeTxnResult(status string, results [][]byte) []byte {
	buf := txnResultHead(status, len(results))
	for _, r := range results {
		buf = appendStr(buf, r)
	}
	return buf
}

// txnResultHead starts a transaction reply of n results: the marker, the
// status and the count.
func txnResultHead(status string, n int) []byte {
	return binary.BigEndian.AppendUint32(appendStr([]byte{txnResultMarker}, status), uint32(n))
}

// DecodeTxnResult parses a transaction reply.
func DecodeTxnResult(raw []byte) (status string, results [][]byte, err error) {
	d := dec{buf: raw, what: "txn result"}
	if d.u8() != txnResultMarker {
		return "", nil, fmt.Errorf("kvstore: not a txn result (%q)", raw)
	}
	status = d.str()
	for n := d.u32(); n > 0 && d.err == nil; n-- {
		results = append(results, []byte(d.str()))
	}
	if err = d.end(); err != nil {
		return "", nil, err
	}
	return status, results, nil
}

// EncodeScanPart encodes a partition-filtered scan: up to limit pairs
// whose keys start with prefix AND belong to hash partition part of
// parts (see PartitionKey).
func EncodeScanPart(prefix string, limit, part, parts int) []byte {
	return EncodeOp(OpScanPart, prefix, fmt.Sprintf("%d %d %d", limit, part, parts))
}

// SplitScan decomposes one OpScan into per-partition OpScanPart
// operations, one per partition. Each partial scan must carry the full
// limit — the merge caps the union, and any partition alone may hold up
// to limit matches.
func SplitScan(prefix string, limit, parts int) [][]byte {
	ops := make([][]byte, parts)
	for p := 0; p < parts; p++ {
		ops[p] = EncodeScanPart(prefix, limit, p, parts)
	}
	return ops
}

// MergeScans merges per-partition scan results (newline-joined "k=v"
// lines, sorted within each partition) into one sorted result capped at
// limit pairs — the reply a whole-keyspace OpScan would have produced.
// Partitions are disjoint, so a plain merge-and-sort suffices.
func MergeScans(parts []string, limit int) string {
	var lines []string
	for _, p := range parts {
		if p == "" {
			continue
		}
		lines = append(lines, strings.Split(p, "\n")...)
	}
	sort.Strings(lines)
	if limit > 0 && len(lines) > limit {
		lines = lines[:limit]
	}
	return strings.Join(lines, "\n")
}

// preparedTxn is a staged (prepared but undecided) transaction: every
// sub-operation this participant is responsible for, in sub order. The
// writes apply on commit; the reads are kept because their keys hold
// locks too (strict two-phase locking — a committed reader observed a
// stable snapshot, not a half-applied writer).
type preparedTxn struct {
	subs []TxnSub
}

// Prepared returns the ids of staged transactions, sorted — the 2PC
// participant's in-doubt set.
func (s *Store) Prepared() []string {
	ids := make([]string, 0, len(s.prepared))
	for id := range s.prepared {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// LockHolder returns the id of the prepared transaction write-locking a
// key ("" if unlocked).
func (s *Store) LockHolder(key string) string { return s.locks[key] }

// txnSubs parses and checks the payload of an OpTxn or OpPrepare.
func txnSubs(payload []byte) ([]TxnSub, error) {
	subs, err := DecodeTxnSubs(payload)
	if err != nil {
		return nil, err
	}
	return subs, validateSubs(subs)
}

// validateSubs checks a transaction's sub-operations: only reads and
// writes are allowed inside a transaction.
func validateSubs(subs []TxnSub) error {
	for _, sub := range subs {
		if sub.Code != OpGet && sub.Code != OpPut {
			return fmt.Errorf("kvstore: txn sub op %d (only get/put allowed)", sub.Code)
		}
	}
	return nil
}

// conflicts reports whether any sub-operation — read or write — targets
// a key locked by a transaction other than id. Reads conflict too:
// prepared transactions hold exclusive locks on their whole key set, so
// committed transactions are serializable, not merely write-atomic.
func (s *Store) conflicts(id string, subs []TxnSub) bool {
	for _, sub := range subs {
		if holder, ok := s.locks[sub.Key]; ok && holder != id {
			return true
		}
	}
	return false
}

// executeTxn runs a one-phase multi-key transaction: sub-operations
// apply in order (reads see the transaction's earlier writes), the whole
// transaction conflicts with prepared write locks like any single-key
// write would. Each result is encoded as it is produced: a read's is the
// stored bytes, which a later put in the transaction overwrites in place.
func (s *Store) executeTxn(id string, payload []byte) []byte {
	subs, err := txnSubs(payload)
	if err != nil {
		return []byte("ERR " + err.Error())
	}
	if s.conflicts(id, subs) {
		return replyLocked
	}
	reply := txnResultHead(TxnCommitted, len(subs))
	for _, sub := range subs {
		switch sub.Code {
		case OpPut:
			s.put([]byte(sub.Key), []byte(sub.Value))
			reply = appendStr(reply, replyOK)
		case OpGet:
			reply = appendStr(reply, getReply(stored(s.buckets[bucketOf(sub.Key)], sub.Key)))
		}
	}
	return reply
}

// executePrepare stages one participant's slice of a cross-group
// transaction: on a write-lock conflict it votes ABORTED without staging
// anything (no-wait, so 2PC over consensus cannot deadlock); otherwise
// it executes the reads (seeing the transaction's earlier writes),
// stages the writes, locks the write set and votes PREPARED. The staged
// state is part of MarshalState, so checkpoints and state transfer carry
// in-doubt transactions to recovering replicas.
func (s *Store) executePrepare(id string, payload []byte) []byte {
	subs, err := txnSubs(payload)
	if err != nil {
		return []byte("ERR " + err.Error())
	}
	if _, dup := s.prepared[id]; dup {
		return []byte("ERR duplicate prepare of txn " + id)
	}
	if s.conflicts(id, subs) {
		return EncodeTxnResult(TxnAborted, nil)
	}
	overlay := map[string]string{}
	results := make([][]byte, len(subs))
	for i, sub := range subs {
		s.locks[sub.Key] = id
		switch sub.Code {
		case OpPut:
			overlay[sub.Key] = sub.Value
			results[i] = replyOK
		case OpGet:
			if v, ok := overlay[sub.Key]; ok {
				results[i] = []byte(v)
			} else {
				results[i] = getReply(stored(s.buckets[bucketOf(sub.Key)], sub.Key))
			}
		}
	}
	s.prepared[id] = &preparedTxn{subs: subs}
	s.touchPrepared()
	return EncodeTxnResult(TxnPrepared, results)
}

// executeCommit applies a prepared transaction's staged writes and
// releases its locks.
func (s *Store) executeCommit(id string) []byte {
	staged, ok := s.prepared[id]
	if !ok {
		return []byte("ERR commit of unknown txn " + id)
	}
	for _, sub := range staged.subs {
		if sub.Code == OpPut {
			s.put([]byte(sub.Key), []byte(sub.Value))
		}
	}
	s.releaseTxn(id, staged)
	return EncodeTxnResult(TxnCommitted, nil)
}

// executeAbort discards a prepared transaction. Aborting a transaction
// this participant never prepared (it voted ABORTED, staging nothing) is
// a no-op, not an error — the coordinator broadcasts its decision to
// every participant.
func (s *Store) executeAbort(id string) []byte {
	if staged, ok := s.prepared[id]; ok {
		s.releaseTxn(id, staged)
	}
	return EncodeTxnResult(TxnAborted, nil)
}

// releaseTxn drops a transaction's staging and locks.
func (s *Store) releaseTxn(id string, staged *preparedTxn) {
	for _, sub := range staged.subs {
		if s.locks[sub.Key] == id {
			delete(s.locks, sub.Key)
		}
	}
	delete(s.prepared, id)
	s.touchPrepared()
}

// executeScanPart runs a partition-filtered scan. The value field
// carries "limit part parts".
func (s *Store) executeScanPart(prefix, value []byte) []byte {
	var limit, part, parts int
	if n, err := fmt.Sscanf(string(value), "%d %d %d", &limit, &part, &parts); n != 3 || err != nil ||
		limit < 0 || parts < 1 || part < 0 || part >= parts {
		return []byte("ERR bad scan partition spec " + strconv.Quote(string(value)))
	}
	return s.scanPart(prefix, limit, part, parts)
}
