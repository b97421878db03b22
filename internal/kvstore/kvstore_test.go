package kvstore

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestPutGetDelete(t *testing.T) {
	s := New()
	if got := s.Execute(EncodeOp(OpPut, "k", "v1")); string(got) != "OK" {
		t.Fatalf("put = %q", got)
	}
	if got := s.Execute(EncodeOp(OpGet, "k", "")); string(got) != "v1" {
		t.Fatalf("get = %q", got)
	}
	if got := s.Execute(EncodeOp(OpPut, "k", "v2")); string(got) != "OK" {
		t.Fatalf("overwrite = %q", got)
	}
	if got := s.Execute(EncodeOp(OpGet, "k", "")); string(got) != "v2" {
		t.Fatalf("get after overwrite = %q", got)
	}
	if got := s.Execute(EncodeOp(OpDelete, "k", "")); string(got) != "OK" {
		t.Fatalf("delete = %q", got)
	}
	if got := s.Execute(EncodeOp(OpGet, "k", "")); string(got) != "NOTFOUND" {
		t.Fatalf("get after delete = %q", got)
	}
	if got := s.Execute(EncodeOp(OpDelete, "k", "")); string(got) != "NOTFOUND" {
		t.Fatalf("double delete = %q", got)
	}
	if s.Applied() != 7 || keyCount(s) != 0 {
		t.Fatalf("applied=%d len=%d", s.Applied(), keyCount(s))
	}
}

func TestMalformedOps(t *testing.T) {
	s := New()
	for _, op := range [][]byte{nil, {1}, {1, 0, 0, 0, 99}, {99, 0, 0, 0, 0, 0, 0, 0, 0}} {
		out := s.Execute(op)
		if len(out) == 0 {
			t.Fatalf("malformed op %v produced empty result", op)
		}
	}
	// A malformed op must not mutate state.
	if keyCount(s) != 0 {
		t.Fatal("malformed op mutated state")
	}
}

func TestOpCodecRoundTrip(t *testing.T) {
	code, key, val, err := DecodeOp(EncodeOp(OpPut, "key-1", "value-1"))
	if err != nil || code != OpPut || key != "key-1" || val != "value-1" {
		t.Fatalf("round trip failed: %v %v %q %q", err, code, key, val)
	}
}

func TestEncodeOpIsSizeExact(t *testing.T) {
	for _, value := range []string{"", "v", strings.Repeat("v", 32<<10)} {
		op := EncodeOp(OpPut, "key-1", value)
		want := append([]byte{byte(OpPut), 0, 0, 0, 5}, "key-1"...)
		want = append(binary.BigEndian.AppendUint32(want, uint32(len(value))), value...)
		if !bytes.Equal(op, want) || cap(op) != len(op) {
			t.Fatalf("EncodeOp with a %d-byte value: %d bytes, capacity %d, want %d exact", len(value), len(op), cap(op), len(want))
		}
	}
}

func TestSnapshotDeterministicAcrossInsertOrder(t *testing.T) {
	a, b := New(), New()
	a.Execute(EncodeOp(OpPut, "x", "1"))
	a.Execute(EncodeOp(OpPut, "y", "2"))
	b.Execute(EncodeOp(OpPut, "y", "2"))
	b.Execute(EncodeOp(OpPut, "x", "1"))
	if a.Snapshot() != b.Snapshot() {
		t.Fatal("snapshot depends on insertion order")
	}
	b.Execute(EncodeOp(OpPut, "z", "3"))
	if a.Snapshot() == b.Snapshot() {
		t.Fatal("different states share a snapshot")
	}
}

func TestMarshalStateRoundTrip(t *testing.T) {
	a := New()
	a.Execute(EncodeOp(OpPut, "x", "1"))
	a.Execute(EncodeOp(OpPut, "y", "2"))
	a.Execute(EncodeOp(OpDelete, "x", ""))
	b := New()
	b.Execute(EncodeOp(OpPut, "stale", "gone"))
	if err := b.UnmarshalState(a.MarshalState()); err != nil {
		t.Fatalf("UnmarshalState: %v", err)
	}
	if b.Snapshot() != a.Snapshot() {
		t.Fatal("restored state digest differs")
	}
	if b.Applied() != a.Applied() {
		t.Fatalf("applied counter not restored: %d vs %d", b.Applied(), a.Applied())
	}
	if _, ok := b.Get("stale"); ok {
		t.Fatal("restore did not replace prior contents")
	}
	if v, ok := b.Get("y"); !ok || v != "2" {
		t.Fatal("restored value missing")
	}
}

func TestUnmarshalStateRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{nil, {1, 2}, append(make([]byte, 8), 0, 0, 0, 9, 'x')} {
		if err := New().UnmarshalState(raw); err == nil {
			t.Errorf("UnmarshalState(%v) should fail", raw)
		}
	}
	// Empty store round-trips.
	s := New()
	if err := s.UnmarshalState(New().MarshalState()); err != nil {
		t.Fatalf("empty round trip: %v", err)
	}
}

// Property: op encoding round-trips for arbitrary keys/values.
func TestPropertyOpCodec(t *testing.T) {
	prop := func(code uint8, key, value string) bool {
		c := OpCode(code%3 + 1)
		gc, gk, gv, err := DecodeOp(EncodeOp(c, key, value))
		return err == nil && gc == c && gk == key && gv == value
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two stores fed the identical op sequence agree on state digest
// and on every result.
func TestPropertyReplicaDeterminism(t *testing.T) {
	prop := func(ops [][2]string, codes []uint8) bool {
		a, b := New(), New()
		for i, kv := range ops {
			code := OpPut
			if i < len(codes) {
				code = OpCode(codes[i]%3 + 1)
			}
			op := EncodeOp(code, kv[0], kv[1])
			if !bytes.Equal(a.Execute(op), b.Execute(op)) {
				return false
			}
		}
		return a.Snapshot() == b.Snapshot()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// keyCount is how many keys the store holds.
func keyCount(s *Store) int {
	n := 0
	for _, m := range s.buckets {
		n += len(m)
	}
	return n
}

// scan is a whole-store scan through the read-only path.
func scan(s *Store, prefix string, limit int) string {
	return string(s.ExecuteReadOnly(EncodeOp(OpScan, prefix, strconv.Itoa(limit))))
}

func TestScanReturnsSortedPrefixMatches(t *testing.T) {
	s := New()
	for _, k := range []string{"k000012", "k000010", "k000019", "k000104", "x9"} {
		s.Execute(EncodeOp(OpPut, k, "v-"+k))
	}
	if got := scan(s, "k00001", 0); got != "k000010=v-k000010\nk000012=v-k000012\nk000019=v-k000019" {
		t.Fatalf("Scan = %q", got)
	}
	if got := scan(s, "k00001", 2); got != "k000010=v-k000010\nk000012=v-k000012" {
		t.Fatalf("limited Scan = %q", got)
	}
	if got := scan(s, "zzz", 0); got != "" {
		t.Fatalf("empty Scan = %q", got)
	}
}

func TestScanThroughExecute(t *testing.T) {
	s := New()
	s.Execute(EncodeOp(OpPut, "a1", "1"))
	s.Execute(EncodeOp(OpPut, "a2", "2"))
	s.Execute(EncodeOp(OpPut, "b1", "3"))
	if got := string(s.Execute(EncodeOp(OpScan, "a", "10"))); got != "a1=1\na2=2" {
		t.Fatalf("scan op = %q", got)
	}
	if got := string(s.Execute(EncodeOp(OpScan, "a", ""))); got != "a1=1\na2=2" {
		t.Fatalf("uncapped scan op = %q", got)
	}
	if got := string(s.Execute(EncodeOp(OpScan, "a", "bogus"))); got != "ERR bad scan limit bogus" {
		t.Fatalf("bad limit = %q", got)
	}
	if got := string(s.Execute(EncodeOp(OpScan, "a", "-1"))); got != "ERR bad scan limit -1" {
		t.Fatalf("negative limit = %q", got)
	}
	// Scans go through the ordered path: they count as applied ops and
	// invalidate the marshal cache like any other execution.
	before := s.Applied()
	s.Execute(EncodeOp(OpScan, "a", ""))
	if s.Applied() != before+1 {
		t.Fatal("scan not counted as an applied op")
	}
}
