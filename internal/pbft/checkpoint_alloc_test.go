package pbft

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"rubin/internal/kvstore"
)

// The gates on what checkpoints and state adoption allocate: a checkpoint
// costs the heap the partition encodings it retains plus a record of a size
// that does not depend on how many partitions the state has, the fold at the
// stable point nothing, and a verified part of a transfer that is not yet
// complete only the copy the transfer keeps.

// heapCost runs f and returns the heap objects and bytes it allocated.
func heapCost(f func()) (mallocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// checkpointSlack is what a checkpoint may allocate beyond the bytes it
// retains: size-class rounding of its few objects. It is far below one
// byte per partition, let alone one digest (32 B) per partition.
const checkpointSlack = 256

// TestCheckpointAllocatesOnlyWhatItRetains: a steady-state checkpoint over
// k dirty partitions — the store's Snapshot, then take — allocates k
// encodings plus the record, its header and its delta, whatever the
// partition count: no copy of the digest list.
func TestCheckpointAllocatesOnlyWhatItRetains(t *testing.T) {
	skipUnderRace(t)
	s := kvstore.New()
	for k := 0; k < 2000; k++ {
		put(s, fmt.Sprintf("cold%05d", k), "value")
	}
	var hot []string // one key in each of eight buckets
	for j := range 8 {
		hot = append(hot, filteredKeys("hot", 1, func(b int) bool { return b == 5+32*j })...)
	}
	cps := newCheckpointStore(4)
	seq := uint64(0)
	checkpoint := func(k int) (mallocs, bytes, retained uint64) {
		for _, key := range hot[:k] {
			put(s, key, fmt.Sprint(seq))
		}
		seq += 4
		mallocs, bytes = heapCost(func() { cps.take(seq, s.Snapshot(), s) })
		rec := recordAt(cps, seq)
		retained = uint64(unsafe.Sizeof(*rec)) + uint64(len(rec.header)) + uint64(len(rec.delta))*uint64(unsafe.Sizeof(cpPart{}))
		for _, p := range rec.delta {
			retained += uint64(len(p.data))
		}
		cps.gc(seq)
		return mallocs, bytes, retained
	}
	for range 4 { // the base, then the scratch and the chain at their steady sizes
		checkpoint(len(hot))
	}
	const rounds = 20
	objects := map[int]uint64{}
	for _, k := range []int{0, 1, len(hot)} {
		var mallocs, bytes, retained uint64
		for range rounds {
			m, b, r := checkpoint(k)
			mallocs, bytes, retained = mallocs+m, bytes+b, retained+r
		}
		objects[k] = mallocs / rounds
		if want := uint64(k + 3); mallocs != rounds*want && !(k == 0 && mallocs == rounds*2) {
			t.Errorf("a checkpoint of %d dirty partitions allocates %v objects, want %d: the encodings, the record, its header and its delta", k, float64(mallocs)/rounds, want)
		}
		if bytes > retained+rounds*checkpointSlack {
			t.Errorf("a checkpoint of %d dirty partitions allocates %d bytes, %d more than it retains (of %d partitions)", k, bytes/rounds, (bytes-retained)/rounds, s.PartitionCount())
		}
	}
	if objects[len(hot)]-objects[1] != uint64(len(hot)-1) {
		t.Errorf("objects per checkpoint %v: want one more per dirty partition", objects)
	}
	verifyChain(t, cps, seq)
}

// TestStableCheckpointFoldAllocatesNothing: gc folds the deltas up to the
// stable point into the base's own arrays.
func TestStableCheckpointFoldAllocatesNothing(t *testing.T) {
	skipUnderRace(t)
	s := kvstore.New()
	for k := 0; k < 2000; k++ {
		put(s, fmt.Sprintf("cold%05d", k), "value")
	}
	cps := newCheckpointStore(4)
	seq := uint64(0)
	var mallocs uint64
	for round := range 20 {
		for range 3 {
			put(s, fmt.Sprintf("hot%d", seq), "v")
			seq += 4
			cps.take(seq, s.Snapshot(), s)
			cps.vote(seq, 1, s.Snapshot())
		}
		m, _ := heapCost(func() { cps.gc(seq - 4) })
		if round > 0 { // the first builds the votes map's buckets
			mallocs += m
		}
		verifyChain(t, cps, seq-4)
		verifyChain(t, cps, seq)
		if len(cps.records) != 2 || !cps.records[0].base {
			t.Fatalf("after gc at %d: %d records, want the folded base and one delta", seq-4, len(cps.records))
		}
	}
	if mallocs != 0 {
		t.Errorf("gc at the stable point allocated %d objects over 19 folds, want 0", mallocs)
	}
}

// TestTransferPartAllocatesOnlyItsCopy feeds one transfer's divergent
// parts one at a time, as handleStatePart does: offerPart, then tryAdopt.
// Every part before the last allocates only the copy offerPart keeps —
// the certified group's completeness check allocates nothing — and the
// transfer adopts on the last part, not before.
func TestTransferPartAllocatesOnlyItsCopy(t *testing.T) {
	skipUnderRace(t)
	x := newFetchFixture()
	x.dst.Snapshot() // requestStateTransfer's Snapshot settles the fetcher's caches
	for _, sender := range []uint32{1, 2} {
		if !x.fetch.offerManifest(x.dst, 0, sender, x.manifest(sender, 5)) {
			t.Fatalf("manifest from %d refused", sender)
		}
	}
	divergent := x.divergent()
	if len(divergent) < 8 {
		t.Fatalf("only %d divergent partitions: the fixture is too small to gate", len(divergent))
	}
	for n, i := range divergent {
		part := StatePart{Seq: fixtureSeq, Part: uint32(i), Data: x.src.MarshalPartition(i), Replica: 1}
		var adopted bool
		mallocs, _ := heapCost(func() {
			if _, stored := x.fetch.offerPart(1, part); !stored {
				t.Fatalf("part %d refused", i)
			}
			_, adopted = x.tryAdopt(5)
		})
		if last := n == len(divergent)-1; adopted != last {
			t.Fatalf("part %d of %d: adopted=%v, want adoption on the last part only", n+1, len(divergent), adopted)
		} else if !last && mallocs != 1 {
			t.Errorf("part %d of %d allocates %d objects, want 1: the copy the transfer keeps", n+1, len(divergent), mallocs)
		}
	}
	if x.dst.Snapshot() != x.src.Snapshot() {
		t.Fatal("the transfer did not adopt the source's state")
	}
}
