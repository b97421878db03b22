package kvstore

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// The store's ownership of its values: every key's cell owns its value's
// backing and a put copies the value in, over the held bytes where they
// fit, so a reply to a get is lent until the next mutating call, and no
// encoding the store hands out or was handed shares a cell's bytes.

// A small put keeps a copy of its value: overwriting the op it came in
// leaves the stored value as it was.
func TestSmallPutKeepsACopyOfItsValue(t *testing.T) {
	for _, size := range []int{16, 4 << 10} {
		s := New()
		value := string(bytes.Repeat([]byte{'v'}, size))
		op := EncodeOp(OpPut, "k", value)
		s.Execute(op)
		for i := range op {
			op[i] = 0xEE
		}
		if v, ok := s.Get("k"); !ok || v != value {
			t.Fatalf("%d B value: the stored value changed with its op", size)
		}
	}
}

// A large put keeps the op's value bytes in the key's cell, not in the op:
// the cell is a backing of its own, and a later put to the held key that
// fits writes over it instead of allocating another.
func TestLargePutKeepsTheOpsBytes(t *testing.T) {
	for _, size := range []int{8 << 10, 32 << 10} {
		s := New()
		value := bytes.Repeat([]byte{'v'}, size)
		op := EncodeOp(OpPut, "k", string(value))
		s.Execute(op)
		c := s.buckets[bucketOf("k")]["k"]
		if !bytes.Equal(*c, value) || &(*c)[0] == &op[len(op)-size] {
			t.Fatalf("%d B value: the stored value is not a copy of the op's bytes", size)
		}
		cell := &(*c)[0]
		for i := range op {
			op[i] = 0xEE
		}
		next := bytes.Repeat([]byte{'n'}, size)
		s.Execute(EncodeOp(OpPut, "k", string(next)))
		if !bytes.Equal(*c, next) || &(*c)[0] != cell {
			t.Fatalf("%d B value: a put to the held key did not write over its cell", size)
		}
	}
}

// A get's reply is the stored bytes, lent until the next Execute: reads,
// tentative or ordered, and the encodings a checkpoint takes leave it as it
// was, and the next put to its key writes its bytes in place.
func TestReplyIsLentUntilTheNextExecute(t *testing.T) {
	for _, size := range []int{16, 8 << 10} {
		s := New()
		old, next := bytes.Repeat([]byte{'o'}, size), bytes.Repeat([]byte{'n'}, size)
		s.Execute(EncodeOp(OpPut, "k", string(old)))
		get := EncodeOp(OpGet, "k", "")
		reply := s.Execute(get)
		s.ExecuteReadOnly(get)
		s.MarshalState()
		s.Snapshot()
		if !bytes.Equal(reply, old) {
			t.Fatalf("%d B value: the reply changed before the next Execute", size)
		}
		s.Execute(EncodeOp(OpPut, "k", string(next)))
		if !bytes.Equal(reply, next) {
			t.Fatalf("%d B value: the put did not write the held value's bytes in place", size)
		}
	}
}

// A read inside a transaction reports the value it read, not what a later
// put of the same transaction writes over the stored bytes.
func TestTxnReadOutlivesItsOwnLaterPut(t *testing.T) {
	for _, size := range []int{16, 8 << 10} {
		s := New()
		old := string(bytes.Repeat([]byte{'o'}, size))
		s.Execute(EncodeOp(OpPut, "k", old))
		_, results := txnResult(t, s.Execute(EncodeTxn("t", []TxnSub{
			{OpGet, "k", ""},
			{OpPut, "k", string(bytes.Repeat([]byte{'n'}, size/2))},
			{OpGet, "k", ""},
		})))
		if len(results) != 3 || string(results[0]) != old || len(results[2]) != size/2 {
			t.Fatalf("%d B value: the transaction's first read reported %.16q…, want the value before its put", size, results[0])
		}
	}
}

// A store that took its state from a transfer or a restore owns every
// value: puts to one key, shorter and longer than its value, leave every
// other value, the partitions it was built from, a partition encoding a
// checkpoint retains and MarshalState's result as they were.
func TestInstalledValuesOwnTheirBytes(t *testing.T) {
	keys := make([]string, 256) // several to a bucket
	for i := range keys {
		keys[i] = fmt.Sprintf("k%03d", i)
	}
	value := func(k string) string { return strings.Repeat(k, 16) }
	src := New()
	for _, k := range keys {
		src.Execute(EncodeOp(OpPut, k, value(k)))
	}
	parts := make([][]byte, MerkleBuckets)
	for i := range parts {
		parts[i] = src.MarshalPartition(i)
	}
	state := bytes.Clone(src.MarshalState())
	for _, tc := range []struct {
		how     string
		install func(s *Store) error
	}{
		{"ApplyTransfer", func(s *Store) error { return s.ApplyTransfer(src.MarshalHeader(), parts) }},
		{"UnmarshalState", func(s *Store) error { return s.UnmarshalState(state) }},
	} {
		how, s := tc.how, New()
		if err := tc.install(s); err != nil {
			t.Fatal(err)
		}
		retained := make([][]byte, MerkleBuckets)
		for i := range retained {
			retained[i] = s.MarshalPartition(i)
		}
		marshaled := s.MarshalState()
		wantRetained, wantMarshaled, wantParts := cloneAll(retained), bytes.Clone(marshaled), cloneAll(parts)
		for _, size := range []int{8, 300} {
			s.Execute(EncodeOp(OpPut, keys[0], strings.Repeat("x", size)))
		}
		for _, k := range keys[1:] {
			if v, _ := s.Get(k); v != value(k) {
				t.Errorf("%s: puts to %s changed %s's value", how, keys[0], k)
			}
		}
		for i := range parts {
			if !bytes.Equal(retained[i], wantRetained[i]) || !bytes.Equal(parts[i], wantParts[i]) {
				t.Errorf("%s: puts to %s changed partition %d's retained encoding or the one it was built from", how, keys[0], i)
			}
		}
		if !bytes.Equal(marshaled, wantMarshaled) || !bytes.Equal(state, src.MarshalState()) {
			t.Errorf("%s: puts to %s changed a marshaled state", how, keys[0])
		}
	}
}

func cloneAll(bs [][]byte) [][]byte {
	out := make([][]byte, len(bs))
	for i, b := range bs {
		out[i] = bytes.Clone(b)
	}
	return out
}
