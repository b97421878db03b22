package kvstore

import (
	"bytes"
	"fmt"
	"testing"

	"rubin/internal/auth"
)

// keyInBucket returns a key of the form prefix<n> that PartitionKey
// assigns to the wanted Merkle bucket.
func keyInBucket(t testing.TB, prefix string, want int) string {
	t.Helper()
	for n := 0; n < 1<<20; n++ {
		k := fmt.Sprintf("%s%d", prefix, n)
		if bucketOf(k) == want {
			return k
		}
	}
	t.Fatalf("no key found for bucket %d", want)
	return ""
}

// TestMerkleRootComposition is the table-driven contract test for the
// partition layer: for a range of store shapes, the root composed from
// the header and leaf digests must equal Snapshot(), and every leaf
// digest must equal auth.Hash of the partition's canonical encoding.
func TestMerkleRootComposition(t *testing.T) {
	cases := []struct {
		name  string
		build func(s *Store)
	}{
		{"empty store", func(s *Store) {}},
		{"single bucket", func(s *Store) {
			s.Execute(EncodeOp(OpPut, "solo", "v"))
		}},
		{"bucket deleted back to empty", func(s *Store) {
			s.Execute(EncodeOp(OpPut, "gone", "v"))
			s.Execute(EncodeOp(OpDelete, "gone", ""))
		}},
		{"many buckets", func(s *Store) {
			for i := 0; i < 300; i++ {
				s.Execute(EncodeOp(OpPut, fmt.Sprintf("k%04d", i), fmt.Sprintf("v%d", i)))
			}
		}},
		{"with staged txn section", func(s *Store) {
			s.Execute(EncodeOp(OpPut, "base", "1"))
			s.Execute(EncodePrepare("t1", []TxnSub{{Code: OpPut, Key: "staged", Value: "x"}}))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			tc.build(s)
			if s.PartitionCount() != MerkleBuckets {
				t.Fatalf("partition count %d", s.PartitionCount())
			}
			digests := digestsOf(s)
			if got := s.ComposeRoot(s.MarshalHeader(), digests); got != s.Snapshot() {
				t.Fatalf("ComposeRoot %x != Snapshot %x", got, s.Snapshot())
			}
			for i, d := range digests {
				if auth.Hash(s.MarshalPartition(i)) != d {
					t.Fatalf("partition %d digest does not match its encoding", i)
				}
			}
		})
	}
}

// digestsOf lists every bucket's current digest, bucket 0 first.
func digestsOf(s *Store) []auth.Digest {
	out := make([]auth.Digest, s.PartitionCount())
	for i := range out {
		out[i] = s.PartitionDigest(i)
	}
	return out
}

// TestMerkleDigestStableAcrossInsertionOrder asserts the leaf digests
// (not just the root) are a pure function of contents: two stores
// reaching the same key set by different orders and intermediate
// states must agree bucket by bucket.
func TestMerkleDigestStableAcrossInsertionOrder(t *testing.T) {
	a, b := New(), New()
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for _, k := range keys {
		a.Execute(EncodeOp(OpPut, k, "v-"+k))
	}
	// b inserts in reverse, with detours through values and deletions.
	for i := len(keys) - 1; i >= 0; i-- {
		b.Execute(EncodeOp(OpPut, keys[i], "wrong"))
		b.Execute(EncodeOp(OpPut, keys[i], "v-"+keys[i]))
	}
	b.Execute(EncodeOp(OpPut, "transient", "x"))
	b.Execute(EncodeOp(OpDelete, "transient", ""))
	da, db := digestsOf(a), digestsOf(b)
	for i := range da {
		if da[i] != db[i] {
			t.Fatalf("bucket %d digest depends on history", i)
		}
	}
	// The roots still differ: the applied counters diverged.
	if a.Snapshot() == b.Snapshot() {
		t.Fatal("snapshot ignores the applied counter")
	}
}

// TestCheckpointDeltaTracksDirtyBuckets drives targeted mutations and
// asserts CheckpointDelta reports exactly the touched buckets, and that
// reads (which advance the applied counter but mutate nothing) dirty
// none.
func TestCheckpointDeltaTracksDirtyBuckets(t *testing.T) {
	s := New()
	k1 := keyInBucket(t, "a", 7)
	k2 := keyInBucket(t, "b", 200)
	s.Execute(EncodeOp(OpPut, k1, "1"))
	s.Execute(EncodeOp(OpPut, k2, "2"))
	base := s.Applied()

	if d := s.CheckpointDelta(base); len(d) != 0 {
		t.Fatalf("nothing applied since base, delta = %v", d)
	}
	s.Execute(EncodeOp(OpGet, k1, ""))
	s.Execute(EncodeOp(OpScan, "a", ""))
	if d := s.CheckpointDelta(base); len(d) != 0 {
		t.Fatalf("reads dirtied buckets: %v", d)
	}
	s.Execute(EncodeOp(OpPut, k2, "2'"))
	if d := s.CheckpointDelta(base); len(d) != 1 || d[0] != 200 {
		t.Fatalf("delta = %v, want [200]", d)
	}
	s.Execute(EncodeOp(OpDelete, k1, ""))
	if d := s.CheckpointDelta(base); len(d) != 2 || d[0] != 7 || d[1] != 200 {
		t.Fatalf("delta = %v, want [7 200]", d)
	}
	// Full history: both populated buckets are dirty relative to zero.
	if d := s.CheckpointDelta(0); len(d) != 2 {
		t.Fatalf("delta from genesis = %v", d)
	}
}

// TestApplyPartitionRoundTrip moves one bucket between stores and
// verifies the receiving store's digest tracks the donor's for that
// bucket, while rejecting non-canonical encodings.
func TestApplyPartitionRoundTrip(t *testing.T) {
	src := New()
	k1 := keyInBucket(t, "p", 42)
	k2 := keyInBucket(t, "q", 42)
	src.Execute(EncodeOp(OpPut, k1, "one"))
	src.Execute(EncodeOp(OpPut, k2, "two"))

	dst := New()
	enc := src.MarshalPartition(42)
	if err := dst.ApplyPartition(42, enc); err != nil {
		t.Fatalf("ApplyPartition: %v", err)
	}
	if dst.PartitionDigest(42) != src.PartitionDigest(42) {
		t.Fatal("transferred bucket digest differs")
	}
	if v, ok := dst.Get(k1); !ok || v != "one" {
		t.Fatal("transferred key unreadable")
	}
	if keyCount(dst) != 2 {
		t.Fatalf("Len = %d after partition install, want 2", keyCount(dst))
	}

	// Rejections: wrong bucket, trailing bytes, truncation, unsorted keys.
	if err := dst.ApplyPartition(41, enc); err == nil {
		t.Fatal("accepted keys into the wrong bucket")
	}
	if err := dst.ApplyPartition(42, append(bytes.Clone(enc), 0)); err == nil {
		t.Fatal("accepted trailing bytes")
	}
	if err := dst.ApplyPartition(42, enc[:len(enc)-2]); err == nil {
		t.Fatal("accepted truncated encoding")
	}
	if err := dst.ApplyPartition(MerkleBuckets, enc); err == nil {
		t.Fatal("accepted out-of-range partition index")
	}
	before := dst.Snapshot()
	if err := dst.ApplyPartition(42, enc[:len(enc)-2]); err == nil || dst.Snapshot() != before {
		t.Fatal("failed ApplyPartition mutated the store")
	}
}

// TestMarshalStateCopiesDoNotAlias is the regression test for the
// checkpoint-retention aliasing hazard: bytes returned by MarshalState
// and MarshalPartition are retained by the PBFT layer across later
// executions, so subsequent mutations must never write through into a
// previously returned slice.
func TestMarshalStateCopiesDoNotAlias(t *testing.T) {
	s := New()
	for i := 0; i < 64; i++ {
		s.Execute(EncodeOp(OpPut, fmt.Sprintf("k%03d", i), "before"))
	}
	snap := s.MarshalState()
	retained := bytes.Clone(snap)
	part := 0
	for i := range s.buckets {
		if len(s.buckets[i]) > 0 {
			part = i
			break
		}
	}
	partEnc := s.MarshalPartition(part)
	partRetained := bytes.Clone(partEnc)

	for i := 0; i < 64; i++ {
		s.Execute(EncodeOp(OpPut, fmt.Sprintf("k%03d", i), "AFTER!"))
		s.Execute(EncodeOp(OpPut, fmt.Sprintf("extra%03d", i), "x"))
	}
	s.MarshalState() // repopulate every cache after the mutations
	if !bytes.Equal(snap, retained) {
		t.Fatal("MarshalState result mutated by later executions")
	}
	if !bytes.Equal(partEnc, partRetained) {
		t.Fatal("MarshalPartition result mutated by later executions")
	}

	// And the reverse direction: installing a partition must not keep a
	// reference to the caller's buffer.
	src := New()
	k := keyInBucket(t, "alias", 3)
	src.Execute(EncodeOp(OpPut, k, "clean"))
	buf := bytes.Clone(src.MarshalPartition(3)) // read-only: scribble on a copy
	dst := New()
	if err := dst.ApplyPartition(3, buf); err != nil {
		t.Fatal(err)
	}
	want := dst.PartitionDigest(3)
	for i := range buf {
		buf[i] ^= 0xFF
	}
	if dst.PartitionDigest(3) != want {
		t.Fatal("store aliases the caller's partition buffer")
	}
}

// TestRetainedPartitionKeepsItsDigest: MarshalPartition hands out the
// bucket's cache, and a pbft checkpoint retains it as it is — sound only
// because a cached slice is never written after creation. The kept bytes
// still hash to the digest recorded with them after later puts re-encode
// their bucket and after an ApplyPartition replaces it.
func TestRetainedPartitionKeepsItsDigest(t *testing.T) {
	const part = 5
	s := New()
	k := keyInBucket(t, "kept", part)
	s.Execute(EncodeOp(OpPut, k, "v0"))
	kept, digest := s.MarshalPartition(part), s.PartitionDigest(part)
	check := func(after string) {
		t.Helper()
		if auth.Hash(kept) != digest {
			t.Fatalf("the retained partition no longer hashes to its digest after %s", after)
		}
		if s.PartitionDigest(part) == digest {
			t.Fatalf("the bucket did not change after %s: the test measured nothing", after)
		}
	}
	for i := 1; i <= 8; i++ {
		s.Execute(EncodeOp(OpPut, k, fmt.Sprintf("v%d", i)))
		s.MarshalPartition(part) // re-encode at every put
	}
	check("later puts to its bucket")
	donor := New()
	donor.Execute(EncodeOp(OpPut, keyInBucket(t, "donor", part), "x"))
	if err := s.ApplyPartition(part, donor.MarshalPartition(part)); err != nil {
		t.Fatal(err)
	}
	s.MarshalState()
	check("an ApplyPartition of its bucket")
}

// TestMarshalStateReusesCleanBucketEncodings asserts the incremental
// re-encode: after a full marshal, mutating one key and marshaling
// again must re-encode only that key's bucket (observable through the
// cache slots).
func TestMarshalStateReusesCleanBucketEncodings(t *testing.T) {
	s := New()
	for i := 0; i < 512; i++ {
		s.Execute(EncodeOp(OpPut, fmt.Sprintf("k%04d", i), "v"))
	}
	s.MarshalState()
	var cached [MerkleBuckets][]byte
	for i := range cached {
		cached[i] = s.bucketEnc[i]
	}
	hot := keyInBucket(t, "hot", 9)
	s.Execute(EncodeOp(OpPut, hot, "1"))
	s.MarshalState()
	for i := range cached {
		same := &s.bucketEnc[i][0] == &cached[i][0]
		if i == 9 && same {
			t.Fatal("dirty bucket encoding not refreshed")
		}
		if i != 9 && !same {
			t.Fatalf("clean bucket %d was re-encoded", i)
		}
	}
}

// TestApplyTransferAtomic verifies whole-store adoption: a valid
// header+partitions set installs atomically and reproduces the donor's
// snapshot; any invalid component leaves the store untouched.
func TestApplyTransferAtomic(t *testing.T) {
	src := New()
	for i := 0; i < 128; i++ {
		src.Execute(EncodeOp(OpPut, fmt.Sprintf("t%04d", i), fmt.Sprintf("v%d", i)))
	}
	src.Execute(EncodePrepare("tx9", []TxnSub{{Code: OpPut, Key: "locked", Value: "L"}}))
	header := src.MarshalHeader()
	parts := make([][]byte, MerkleBuckets)
	for i := range parts {
		parts[i] = src.MarshalPartition(i)
	}

	dst := New()
	dst.Execute(EncodeOp(OpPut, "stale", "gone"))
	if err := dst.ApplyTransfer(header, parts); err != nil {
		t.Fatalf("ApplyTransfer: %v", err)
	}
	if dst.Snapshot() != src.Snapshot() {
		t.Fatal("adopted snapshot differs from donor")
	}
	if _, ok := dst.Get("stale"); ok {
		t.Fatal("transfer did not replace prior contents")
	}
	if keyCount(dst) != keyCount(src) || dst.Applied() != src.Applied() {
		t.Fatalf("counters diverged: len %d/%d applied %d/%d", keyCount(dst), keyCount(src), dst.Applied(), src.Applied())
	}

	// A corrupt partition in the set must reject without mutating.
	bad := make([][]byte, MerkleBuckets)
	copy(bad, parts)
	for i := range bad {
		if len(bad[i]) > 4 {
			bad[i] = bad[i][:len(bad[i])-1]
			break
		}
	}
	before := dst.Snapshot()
	if err := dst.ApplyTransfer(header, bad); err == nil {
		t.Fatal("accepted transfer with corrupt partition")
	}
	if dst.Snapshot() != before {
		t.Fatal("failed transfer mutated the store")
	}
	if err := dst.ApplyTransfer(header, parts[:10]); err == nil {
		t.Fatal("accepted short partition set")
	}
	if err := dst.ApplyTransfer(header[:4], parts); err == nil {
		t.Fatal("accepted truncated header")
	}
}

// FuzzApplyPartition asserts the partition codec is total and
// canonical: arbitrary bytes either install (and then re-marshal byte
// for byte with a digest matching auth.Hash of the input) or reject
// with the store untouched — never panic.
func FuzzApplyPartition(f *testing.F) {
	seedSrc := New()
	seedSrc.Execute(EncodeOp(OpPut, "fz-a", "1"))
	seedSrc.Execute(EncodeOp(OpPut, "fz-b", "2"))
	for i := 0; i < MerkleBuckets; i++ {
		if len(seedSrc.MarshalPartition(i)) > 4 {
			f.Add(i, seedSrc.MarshalPartition(i))
		}
	}
	f.Add(0, New().MarshalPartition(0))
	f.Add(3, []byte{})
	f.Add(-1, []byte{0, 0, 0, 0})
	f.Add(MerkleBuckets, []byte{0, 0, 0, 1, 0, 0, 0, 1, 'x', 0, 0, 0, 0})
	f.Add(5, []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, part int, data []byte) {
		s := New()
		s.Execute(EncodeOp(OpPut, "pre", "kept"))
		before := s.Snapshot()
		if err := s.ApplyPartition(part, data); err != nil {
			if s.Snapshot() != before {
				t.Fatal("failed ApplyPartition mutated the store")
			}
			return
		}
		if got := s.MarshalPartition(part); !bytes.Equal(got, data) {
			t.Fatalf("accepted partition is not canonical:\n%x\nvs\n%x", data, got)
		}
		if s.PartitionDigest(part) != auth.Hash(data) {
			t.Fatal("installed digest does not hash the encoding")
		}
	})
}

// benchStore builds a store with n keys for the checkpoint benchmarks.
func benchStore(n int) *Store {
	s := New()
	for i := 0; i < n; i++ {
		s.Execute(EncodeOp(OpPut, fmt.Sprintf("bench%06d", i), "value-for-benchmarking"))
	}
	s.MarshalState() // settle every cache
	return s
}

// BenchmarkCheckpointTakeIncremental measures the steady-state
// checkpoint path over a 10k-key store: one mutation, then what a pbft
// checkpoint takes from the store — the header, and each dirty
// partition's serialization and digest. The interesting number is
// allocs/op staying flat as the store grows (contrast
// BenchmarkCheckpointTakeFull): the put, the header and the one dirty
// bucket's encoding.
func BenchmarkCheckpointTakeIncremental(b *testing.B) {
	s := benchStore(10_000)
	prev := s.Applied()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Execute(EncodeOp(OpPut, "bench000007", fmt.Sprintf("v%d", i)))
		header := s.MarshalHeader()
		var bytes int
		var digest auth.Digest
		for _, p := range s.CheckpointDelta(prev) {
			bytes += len(s.MarshalPartition(p))
			digest = s.PartitionDigest(p)
		}
		prev = s.Applied()
		_, _, _ = header, bytes, digest
	}
}

// BenchmarkCheckpointTakeFull measures a whole-store serialization per
// checkpoint — the O(state) reference the incremental checkpoint above is
// read against, and what the state fetcher's rollback copy costs.
func BenchmarkCheckpointTakeFull(b *testing.B) {
	s := benchStore(10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Execute(EncodeOp(OpPut, "bench000007", fmt.Sprintf("v%d", i)))
		_ = len(s.MarshalState())
	}
}

// BenchmarkCheckpointAdopt measures whole-state adoption from a
// transfer (header + 256 partitions), the receive side of recovery.
func BenchmarkCheckpointAdopt(b *testing.B) {
	src := benchStore(10_000)
	header := src.MarshalHeader()
	parts := make([][]byte, MerkleBuckets)
	for i := range parts {
		parts[i] = src.MarshalPartition(i)
	}
	dst := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := dst.ApplyTransfer(header, parts); err != nil {
			b.Fatal(err)
		}
	}
}
