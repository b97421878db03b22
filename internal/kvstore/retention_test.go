package kvstore

import (
	"bytes"
	"testing"
)

// The store's ownership of its values: a small put copies its value out of
// the op, a put of an op above ownedOp keeps a slice of it, and a reply
// handed out is never written again.

// A small put's value is a copy: the op it came in may share its backing
// with other requests, and overwriting the op leaves the stored value as it
// was.
func TestSmallPutKeepsACopyOfItsValue(t *testing.T) {
	s := New()
	op := EncodeOp(OpPut, "k", "small value")
	s.Execute(op)
	for i := range op {
		op[i] = 0xEE
	}
	if v, ok := s.Get("k"); !ok || v != "small value" {
		t.Fatalf("stored value %q after its op was overwritten, want %q", v, "small value")
	}
}

// A put of an op above ownedOp keeps its value as a slice of the op: the
// op is an allocation of its own, so the store copies nothing.
func TestLargePutKeepsTheOpsBytes(t *testing.T) {
	s := New()
	value := bytes.Repeat([]byte{'v'}, ownedOp)
	op := EncodeOp(OpPut, "k", string(value))
	s.Execute(op)
	v := *s.buckets[bucketOf("k")]["k"]
	if !bytes.Equal(v, value) || &v[0] != &op[len(op)-len(value)] {
		t.Fatalf("a %d B op's value was copied, not kept as the op's last %d bytes", len(op), len(value))
	}
}

// A reply is the stored bytes, and a later put to its key replaces them
// without writing them: the reply handed out reads as it did, for a small
// value and for one kept in its op.
func TestReplyOutlivesALaterPut(t *testing.T) {
	for _, size := range []int{16, 2 * ownedOp} {
		s := New()
		old, next := bytes.Repeat([]byte{'o'}, size), bytes.Repeat([]byte{'n'}, size)
		s.Execute(EncodeOp(OpPut, "k", string(old)))
		get := EncodeOp(OpGet, "k", "")
		reply, tentative := s.Execute(get), s.ExecuteReadOnly(get)
		s.Execute(EncodeOp(OpPut, "k", string(next)))
		if !bytes.Equal(reply, old) || !bytes.Equal(tentative, old) {
			t.Fatalf("%d B value: a reply changed with a later put to its key", size)
		}
		if got := s.Execute(get); !bytes.Equal(got, next) {
			t.Fatalf("%d B value: get after the put = %q", size, got)
		}
	}
}
