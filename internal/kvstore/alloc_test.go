package kvstore

import (
	"fmt"
	"testing"

	"rubin/internal/raceflag"
)

// The gates on what the store allocates: an operation costs the heap what
// the store keeps — for a key the store does not hold its string, cell and
// value; a put to a held key writes over the held value — plus the one reply
// that is not shared (a scan's lines; a get answers with the stored bytes);
// a checkpoint costs one exactly sized encoding per dirty bucket, and
// digesting clean buckets nothing. Like the
// gates below pbft they skip under -race, whose runtime allocates on its own.

func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the path's")
	}
}

func TestExecuteAllocatesOnlyWhatTheStoreKeeps(t *testing.T) {
	skipUnderRace(t)
	s := New()
	gone := EncodeOp(OpPut, "gone", "value")
	sized := func(n int) []byte { return EncodeOp(OpPut, fmt.Sprint("v", n), string(make([]byte, n))) }
	for _, k := range []string{"k000010", "k000011", "k000012", "x"} {
		s.Execute(EncodeOp(OpPut, k, "value-"+k))
	}
	for _, n := range []int{16, 8 << 10, 32 << 10} {
		s.Execute(sized(n))
	}
	for _, tc := range []struct {
		name  string
		ops   [][]byte
		want  float64
		reply string
	}{
		{"get", [][]byte{EncodeOp(OpGet, "k000010", "")}, 0, "value-k000010"},
		{"get of a missing key", [][]byte{EncodeOp(OpGet, "nope", "")}, 0, "NOTFOUND"},
		{"put to a held key", [][]byte{EncodeOp(OpPut, "k000011", "value-k000011")}, 0, "OK"},
		{"put of a 16 B value to a held key", [][]byte{sized(16)}, 0, "OK"},
		{"put of an 8 KiB value to a held key", [][]byte{sized(8 << 10)}, 0, "OK"},
		{"put of a 32 KiB value to a held key", [][]byte{sized(32 << 10)}, 0, "OK"},
		{"put to a new key, then delete", [][]byte{gone, EncodeOp(OpDelete, "gone", "")}, 3, "OK"},
		{"delete of a missing key", [][]byte{EncodeOp(OpDelete, "nope", "")}, 0, "NOTFOUND"},
		{"scan", [][]byte{EncodeOp(OpScan, "k00001", "16")}, 1, "k000010=value-k000010\nk000011=value-k000011\nk000012=value-k000012"},
		{"scan matching nothing", [][]byte{EncodeOp(OpScan, "zz", "16")}, 0, ""},
	} {
		var reply []byte
		allocs := testing.AllocsPerRun(50, func() {
			for _, op := range tc.ops {
				reply = s.Execute(op)
			}
		})
		if allocs != tc.want || string(reply) != tc.reply {
			t.Errorf("%s: %v allocations, reply %q; want %v and %q", tc.name, allocs, reply, tc.want, tc.reply)
		}
		if op := tc.ops[len(tc.ops)-1]; op[0] != byte(OpPut) && op[0] != byte(OpDelete) {
			if allocs := testing.AllocsPerRun(50, func() { reply = s.ExecuteReadOnly(op) }); allocs != tc.want {
				t.Errorf("%s read-only: %v allocations, want %v", tc.name, allocs, tc.want)
			}
		}
	}
}

func TestCheckpointAllocatesOneEncodingPerDirtyBucket(t *testing.T) {
	skipUnderRace(t)
	s := New()
	for i := 0; i < 2000; i++ {
		s.Execute(EncodeOp(OpPut, fmt.Sprintf("k%04d", i), "v"))
	}
	s.MarshalState()
	for _, b := range []int{0, 7, MerkleBuckets - 1} {
		if allocs := testing.AllocsPerRun(50, func() {
			s.touchBucket(b)
			s.bucketBytes(b)
		}); allocs != 1 {
			t.Errorf("re-encoding dirty bucket %d (%d keys) allocates %v times, want 1", b, len(s.buckets[b]), allocs)
		}
		if allocs := testing.AllocsPerRun(50, func() { s.MarshalPartition(b) }); allocs != 0 {
			t.Errorf("MarshalPartition of clean bucket %d allocates %v times, want 0: it hands out the cache", b, allocs)
		}
	}
	header, digests := s.MarshalHeader(), digestsOf(s)
	if allocs := testing.AllocsPerRun(50, func() { s.Snapshot() }); allocs != 0 {
		t.Errorf("Snapshot over clean buckets allocates %v times, want 0: the Merkle fold runs on the stack", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { s.ComposeRoot(header, digests) }); allocs != 0 {
		t.Errorf("ComposeRoot allocates %v times, want 0", allocs)
	}
	if s.ComposeRoot(header, digests) != s.Snapshot() {
		t.Error("ComposeRoot of the store's own header and digests is not its Snapshot")
	}
	empty := New()
	if allocs := testing.AllocsPerRun(50, func() {
		empty.touchBucket(3)
		empty.bucketBytes(3)
	}); allocs != 1 {
		t.Errorf("re-encoding an empty bucket allocates %v times, want 1", allocs)
	}
}
