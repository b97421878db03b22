package pbft

import (
	"fmt"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// prefillCluster applies n puts directly to every replica's store before
// any traffic, simulating a group with accumulated cold state. The keys
// are distinct from workload keys and applied identically everywhere, so
// digests and applied counters stay in agreement.
func prefillCluster(c *Cluster, n int) {
	for i := range c.Apps {
		s := c.Apps[i].(*kvstore.Store)
		for k := 0; k < n; k++ {
			s.Execute(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("cold%06d", k), "prefill-value"))
		}
	}
}

// TestTransferShipsOnlyDivergentState verifies the transfer economics on
// the one protocol, table-driven over what the restarted replica boots
// with. A replica rebooting from its durable cold state shares every cold
// partition with the group, so recovery moves only the hot partitions —
// far less than one snapshot. A replica rebooting with an empty store
// shares nothing: every populated partition diverges and each responder
// ships (nearly) the whole state, so at least one snapshot crosses the
// wire — the degenerate input that used to be a protocol of its own.
func TestTransferShipsOnlyDivergentState(t *testing.T) {
	const cold = 2000
	coldStore := func() *kvstore.Store {
		s := kvstore.New()
		for k := 0; k < cold; k++ {
			s.Execute(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("cold%06d", k), "prefill-value"))
		}
		return s
	}
	served := func(t *testing.T, restartEmpty bool) (bytes, snapshot uint64) {
		booted := make(map[int]bool)
		c, err := NewCluster(transport.KindTCP, transferConfig(), model.Default(), 1, func(i int) Application {
			restart := booted[i]
			booted[i] = true
			if restart && restartEmpty {
				return kvstore.New()
			}
			return coldStore()
		})
		if err != nil {
			t.Fatal(err)
		}
		must(t, c.Start())
		cl, err := c.AddClient()
		must(t, err)
		c.Crash(3)
		invokeN(t, c, cl, "hot", 20)
		must(t, c.Restart(3))
		c.Loop.Run()
		invokeN(t, c, cl, "post", 10)
		c.Loop.RunUntil(c.Loop.Now() + 200*sim.Millisecond)
		if c.Replicas[3].StateTransfers() == 0 {
			t.Fatal("restarted replica completed no state transfer")
		}
		if c.Replicas[3].StateRejects() != 0 {
			t.Fatalf("%d transfer rejections on a fault-free network", c.Replicas[3].StateRejects())
		}
		if got, want := c.Replicas[3].Executed(), c.Replicas[0].Executed(); got != want {
			t.Fatalf("restarted replica executed %d, group %d", got, want)
		}
		if c.Apps[3].Snapshot() != c.Apps[0].Snapshot() {
			t.Fatal("recovered state diverged")
		}
		for i := 0; i < 4; i++ {
			bytes += c.Replicas[i].StateBytesServed()
		}
		return bytes, uint64(len(c.Apps[0].(*kvstore.Store).MarshalState()))
	}
	t.Run("cold-restart", func(t *testing.T) {
		// The hot keys occupy a handful of the 256 buckets; the savings
		// should be substantial, not marginal.
		if bytes, snapshot := served(t, false); bytes*2 > snapshot {
			t.Fatalf("served %d bytes against a %d-byte snapshot — expected < half", bytes, snapshot)
		}
	})
	t.Run("empty-restart", func(t *testing.T) {
		if bytes, snapshot := served(t, true); bytes < snapshot {
			t.Fatalf("served %d bytes, below one snapshot (%d) — the whole state must cross the wire", bytes, snapshot)
		}
	})
}

// TestByzantineCorruptedSubtree restarts a replica while one responder
// serves corrupted partitions: every StatePart is verified against the
// certified manifest on arrival, so the fetcher must reject and ban the
// corrupt peer, count the rejection, and still recover through the
// honest responders. The corrupt parts are delivered first, before the
// transfer could complete.
func TestByzantineCorruptedSubtree(t *testing.T) {
	h := newStepCluster(t, transport.KindTCP, transferConfig())
	h.Crash(3)
	for ts := uint64(1); ts <= 20; ts++ {
		h.submit(ts, 0, 1, 2)
	}
	h.drain(everything)
	h.byzantine[1] = corruptStateParts(h.Replicas[1])
	must(t, h.Restart(3))
	h.drain(func(e envelope) bool { return e.typ() != MsgStatePart || e.from == 1 })
	h.drain(everything)
	for ts := uint64(21); ts <= 30; ts++ {
		h.submit(ts, 0, 1, 2, 3)
	}
	h.drain(everything)

	rep := h.Replicas[3]
	if rep.StateTransfers() == 0 {
		h.fatalf("replica never completed a state transfer despite honest majority")
	}
	if got, want := rep.Executed(), h.Replicas[0].Executed(); got != want {
		h.fatalf("replica 3 executed %d, group %d", got, want)
	}
	if rep.StateRejects() == 0 {
		h.fatalf("corrupted partitions were never detected")
	}
	if d0 := h.Apps[0].Snapshot(); h.Apps[3].Snapshot() != d0 {
		h.fatalf("recovered state diverged")
	}
	if v, ok := h.Apps[3].(*kvstore.Store).Get("k"); !ok || v != "v" {
		h.fatalf("recovered state missing a committed key")
	}
}

// TestCheckpointRetentionBounded is the regression test for the
// checkpoint-amplification bug: across a long run the per-replica
// retained checkpoint bytes must stay within a small multiple of one
// state snapshot (one materialized base plus delta partitions), where
// retaining a snapshot per in-window checkpoint would hold several.
func TestCheckpointRetentionBounded(t *testing.T) {
	c := newTestCluster(t, transport.KindTCP, transferConfig(), 1)
	prefillCluster(c, 2000) // sizeable cold state amplifies retention
	cl := c.Clients[0]
	invokeN(t, c, cl, "ret", 48) // 24 seqs = 6 checkpoint intervals
	count, _ := c.Replicas[0].CheckpointStats()
	if count < 4 {
		t.Fatalf("only %d checkpoints taken", count)
	}
	snapshot := len(c.Apps[0].(*kvstore.Store).MarshalState())
	// Delta retention: one base (≈1 snapshot) + in-window dirty buckets.
	if ratio := float64(c.Replicas[0].RetainedStateBytes()) / float64(snapshot); ratio > 2.0 {
		t.Fatalf("retention holds %.1f× the %d-byte snapshot over %d checkpoints, want <= 2.0×", ratio, snapshot, count)
	}
}

// hotBuckets is the bucket cutoff separating the update-heavy working
// set from the cold mass in the sublinearity test: hot keys land in
// buckets [0, hotBuckets), cold prefill in [hotBuckets, MerkleBuckets).
// Incremental checkpoints win exactly when updates concentrate in a
// subset of partitions; interleaving hot and cold keys in the same
// bucket would re-serialize the cold neighbors on every interval (the
// granularity tradeoff of partition-level deltas).
const hotBuckets = 8

// filteredKeys returns n keys of the form prefix<i> whose Merkle bucket
// satisfies the predicate.
func filteredKeys(prefix string, n int, keep func(bucket int) bool) []string {
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("%s%06d", prefix, i)
		if keep(kvstore.PartitionKey(k, kvstore.MerkleBuckets)) {
			keys = append(keys, k)
		}
	}
	return keys
}

// invokeKeys commits one put per key through the client.
func invokeKeys(t *testing.T, c *Cluster, cl *Client, keys []string) {
	t.Helper()
	done := 0
	c.Loop.Post(func() {
		for _, k := range keys {
			cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, k, "v"), func([]byte) { done++ })
		}
	})
	c.Loop.Run()
	if done != len(keys) {
		t.Fatalf("completed %d of %d requests", done, len(keys))
	}
}

// TestIncrementalCheckpointCostSublinear pins the kvstore-level
// economics the E12 experiment measures end to end: with a hot working
// set over a growing cold mass, steady-state checkpoint bytes (the
// dirty partitions re-serialized per interval) must not scale with
// total state size.
func TestIncrementalCheckpointCostSublinear(t *testing.T) {
	steady := func(prefill int) uint64 {
		cfg := transferConfig()
		c := newTestCluster(t, transport.KindTCP, cfg, 1)
		cold := filteredKeys("cold", prefill, func(b int) bool { return b >= hotBuckets })
		for i := range c.Apps {
			s := c.Apps[i].(*kvstore.Store)
			for _, k := range cold {
				s.Execute(kvstore.EncodeOp(kvstore.OpPut, k, "prefill-value"))
			}
		}
		invokeKeys(t, c, c.Clients[0], filteredKeys("hot", 48, func(b int) bool { return b < hotBuckets }))
		count, bytes := c.Replicas[0].CheckpointSteadyStats()
		if count == 0 {
			t.Fatal("no steady-state checkpoints taken")
		}
		return bytes / count
	}
	small, large := steady(500), steady(8000)
	// 16× the cold state must not mean anywhere near 16× the steady
	// checkpoint bytes; allow generous slack for per-interval variance.
	if large > small*4 {
		t.Fatalf("steady checkpoint bytes grew %d -> %d with 16x state — not sublinear", small, large)
	}
}
