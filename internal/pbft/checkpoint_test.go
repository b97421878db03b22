package pbft

import (
	"fmt"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/kvstore"
)

// put applies one write directly to a store (no cluster, no agreement).
func put(s *kvstore.Store, key, value string) {
	s.Execute(kvstore.EncodeOp(kvstore.OpPut, key, value))
}

// recordAt returns the store's record at exactly seq, or nil.
func recordAt(cps *checkpointStore, seq uint64) *cpRecord {
	if rec := cps.latest(seq); rec != nil && rec.seq == seq {
		return rec
	}
	return nil
}

// verifyChain asserts every partition of the retained checkpoint at seq
// materializes to bytes hashing to the digest retained beside them, and
// that those digests compose to the checkpoint's root.
func verifyChain(t *testing.T, cps *checkpointStore, seq uint64) {
	t.Helper()
	rec := recordAt(cps, seq)
	if rec == nil {
		t.Fatalf("no record retained at %d", seq)
	}
	digests := make([]auth.Digest, kvstore.MerkleBuckets)
	for i := range digests {
		var data []byte
		if data, digests[i] = cps.part(seq, i); auth.Hash(data) != digests[i] {
			t.Fatalf("checkpoint %d partition %d resolves to the wrong bytes", seq, i)
		}
	}
	if kvstore.New().ComposeRoot(rec.header, digests) != rec.digest {
		t.Fatalf("checkpoint %d's partition digests do not compose to its root", seq)
	}
}

// TestCheckpointStoreDeltaChain drives the store directly: the first
// retained checkpoint is a base, later ones hold only dirty partitions,
// and a partition resolves through a three-deep chain to the newest
// record that holds it.
func TestCheckpointStoreDeltaChain(t *testing.T) {
	s := kvstore.New()
	for k := 0; k < 500; k++ {
		put(s, fmt.Sprintf("cold%04d", k), "v")
	}
	cps := newCheckpointStore(4)
	if got, want := cps.take(4, s.Snapshot(), s), len(s.MarshalHeader()); got <= want {
		t.Fatalf("base checkpoint serialized %d bytes, want the whole state", got)
	}
	if base := recordAt(cps, 4); !base.base || len(base.parts) != s.PartitionCount() {
		t.Fatal("first retained checkpoint is not a full base")
	}
	for i, seq := range []uint64{8, 12, 16} {
		put(s, fmt.Sprintf("hot%d", i), "x")
		cps.take(seq, s.Snapshot(), s)
		if rec := recordAt(cps, seq); rec.base || len(rec.delta) != 1 || rec.parts != nil {
			t.Fatalf("checkpoint %d holds %d partitions (base=%v), want one dirty partition", seq, len(rec.delta), rec.base)
		}
	}
	for _, seq := range []uint64{4, 8, 12, 16} {
		verifyChain(t, cps, seq)
	}
	if cps.count != 4 || cps.steadyCount != 3 {
		t.Fatalf("counted %d checkpoints, %d steady; want 4 and 3", cps.count, cps.steadyCount)
	}
	// The partition dirtied before checkpoint 8 must come from record 8
	// when asked at 16, not from the stale base.
	hot0 := kvstore.PartitionKey("hot0", kvstore.MerkleBuckets)
	if data, _ := cps.part(16, hot0); string(data) == string(recordAt(cps, 4).parts[hot0]) {
		t.Fatal("partition resolved to the base copy, skipping its delta")
	}
}

// TestCheckpointStoreGCFoldsAtStable asserts garbage collection at the
// stable point: votes and digests below it go, the chain below it folds
// into one base at stable, and everything above still resolves.
func TestCheckpointStoreGCFoldsAtStable(t *testing.T) {
	s := kvstore.New()
	cps := newCheckpointStore(4)
	for i, seq := range []uint64{4, 8, 12, 16} {
		put(s, fmt.Sprintf("k%d", i), "v")
		cps.take(seq, s.Snapshot(), s)
		cps.vote(seq, 0, s.Snapshot())
	}
	cps.gc(12)
	for _, seq := range []uint64{4, 8} {
		if recordAt(cps, seq) != nil {
			t.Fatalf("record %d survived GC at 12", seq)
		}
	}
	if rec := recordAt(cps, 12); rec == nil || !rec.base || len(rec.parts) != s.PartitionCount() {
		t.Fatal("stable checkpoint was not folded into a full base")
	}
	verifyChain(t, cps, 12)
	verifyChain(t, cps, 16)
	if recordAt(cps, 12) == nil || len(cps.records) != 2 {
		t.Fatalf("own digests after GC: %d kept, want those at 12 and 16", len(cps.records))
	}
	if len(cps.votes) != 1 || cps.votes[16].count(recordAt(cps, 16).digest) != 1 {
		t.Fatalf("votes after GC: %v, want only checkpoint 16's", cps.votes)
	}
}

// TestCheckpointStoreRetentionBounded is the cluster-free form of the
// checkpoint-amplification regression: ten checkpoints over a sizeable
// cold state, stable trailing by one interval, must never retain more
// than twice one snapshot.
func TestCheckpointStoreRetentionBounded(t *testing.T) {
	s := kvstore.New()
	for k := 0; k < 2000; k++ {
		put(s, fmt.Sprintf("cold%06d", k), "prefill-value")
	}
	cps := newCheckpointStore(4)
	for cp := uint64(1); cp <= 10; cp++ {
		for k := 0; k < 8; k++ {
			put(s, fmt.Sprintf("hot%02d", k), fmt.Sprint(cp))
		}
		cps.take(cp*4, s.Snapshot(), s)
		if cp > 1 {
			cps.gc((cp - 1) * 4)
		}
		if got, limit := cps.retainedBytes(), 2*uint64(len(s.MarshalState())); got > limit {
			t.Fatalf("after checkpoint %d: %d bytes retained, limit %d (2× one snapshot)", cp, got, limit)
		}
	}
	if len(cps.records) != 2 {
		t.Fatalf("%d records retained, want the stable base and one delta", len(cps.records))
	}
}

// TestCheckpointVoteTally pins the counting rules recordCheckpoint relies
// on: votes are per sender (a re-vote replaces), and the largest agreeing
// group is found whichever cells hold it.
func TestCheckpointVoteTally(t *testing.T) {
	a, b := auth.Hash([]byte("a")), auth.Hash([]byte("b"))
	cps := newCheckpointStore(4)
	cps.vote(8, 0, a)
	cps.vote(8, 1, b)
	cps.vote(8, 2, b)
	cps.vote(8, 0, b) // sender 0 changes its mind: still one vote
	cps.vote(8, 3, a)
	cps.vote(8, 4, b) // not a member of the group: no cell, no vote
	if v := cps.votes[8]; v.count(a) != 1 || v.count(b) != 3 || v.max() != 3 {
		t.Fatalf("tally a=%d b=%d max=%d, want 1, 3, 3", v.count(a), v.count(b), v.max())
	}
	if cps.votes[12].max() != 0 {
		t.Fatal("votes counted for a checkpoint nobody advertised")
	}
}
