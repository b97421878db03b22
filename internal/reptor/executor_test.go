package reptor

import (
	"fmt"
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/pbft"
	"rubin/internal/raceflag"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// opRoutedTo returns an encoded kvstore put whose hash routes to the
// given instance.
func opRoutedTo(t *testing.T, cfg Config, instance int, salt string) []byte {
	t.Helper()
	for i := 0; i < 100000; i++ {
		op := kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("%s-%06d", salt, i), "v")
		if cfg.Route(op) == instance {
			return op
		}
	}
	t.Fatalf("no key routes to instance %d", instance)
	return nil
}

// TestBatchedFillAcrossMultiRoundHoleRun drives traffic at a single
// instance so every other instance accumulates a contiguous run of holes
// spanning several rounds, and asserts one heartbeat round fills several
// slots at once (the ranged ProposeHeartbeat) instead of paying one full
// agreement per hole.
func TestBatchedFillAcrossMultiRoundHoleRun(t *testing.T) {
	cfg := DefaultConfig()
	g := newTestGroup(t, transport.KindRDMA, cfg)
	cl, err := g.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	// Batch size 8: 24 requests at one instance commit as several rounds,
	// so the idle instances' hole runs span multiple rounds.
	const n = 24
	done := 0
	g.Loop.Post(func() {
		for i := 0; i < n; i++ {
			cl.Invoke(opRoutedTo(t, cfg, 0, fmt.Sprintf("batched-%d", i)), func([]byte) { done++ })
		}
	})
	g.Loop.Run()
	if done != n {
		t.Fatalf("completed %d of %d", done, n)
	}
	if ex := g.Executors[0]; ex.Backlog() != 0 {
		t.Fatalf("executor stalled with %d committed-but-unmerged batches", ex.Backlog())
	}
	if got := len(g.GlobalOrder(0)); got != n {
		t.Fatalf("merged %d requests, want %d", got, n)
	}
	// A fill is proposed by the node leading the lagging instance, so the
	// counters live on different executors — aggregate them.
	var rounds, slots uint64
	for node := 0; node < cfg.PBFT.N; node++ {
		rounds += g.Executors[node].hbRounds
		slots += *g.Executors[node].hbSlots
	}
	if rounds == 0 {
		t.Fatal("single-instance traffic should require heartbeat fills")
	}
	if slots <= rounds {
		t.Errorf("fills are not batched: %d rounds filled only %d slots", rounds, slots)
	}
	// Every node agrees on the merged order.
	ref := g.GlobalOrder(0)
	for node := 1; node < cfg.PBFT.N; node++ {
		got := g.GlobalOrder(node)
		if len(got) != len(ref) {
			t.Fatalf("node %d merged %d, node 0 merged %d", node, len(got), len(ref))
		}
	}
}

// TestHeartbeatSkippedWhenHoleFillsConcurrently arms the heartbeat with a
// delay far beyond the commit latency: the hole the timer was armed for
// fills through normal traffic before the timer fires, so the fire must
// not propose anything (no wasted empty-batch agreement) and the merge
// must complete regardless.
func TestHeartbeatSkippedWhenHoleFillsConcurrently(t *testing.T) {
	cfg := DefaultConfig()
	cfg.HeartbeatDelay = 50 * sim.Millisecond // >> commit latency
	cfg.HeartbeatMax = 100 * sim.Millisecond
	g := newTestGroup(t, transport.KindRDMA, cfg)
	cl, err := g.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	// One op per instance: every instance's round-1 slot fills with real
	// traffic, at slightly different instants — each executor transiently
	// sees holes and arms, but every hole fills on its own.
	done := 0
	g.Loop.Post(func() {
		for k := 0; k < cfg.Instances; k++ {
			cl.Invoke(opRoutedTo(t, cfg, k, fmt.Sprintf("conc-%d", k)), func([]byte) { done++ })
		}
	})
	g.Loop.Run()
	if done != cfg.Instances {
		t.Fatalf("completed %d of %d", done, cfg.Instances)
	}
	for node := 0; node < cfg.PBFT.N; node++ {
		ex := g.Executors[node]
		if ex.hbRounds != 0 {
			t.Errorf("node %d fired %d heartbeat fills for holes that filled concurrently",
				node, ex.hbRounds)
		}
		if ex.Backlog() != 0 {
			t.Errorf("node %d stalled with backlog %d", node, ex.Backlog())
		}
		if got := len(g.GlobalOrder(node)); got != cfg.Instances {
			t.Errorf("node %d merged %d requests, want %d", node, got, cfg.Instances)
		}
	}
}

// TestSubsumedRoundsUnblockMerge drives the executor's state-transfer
// accounting directly: rounds folded into an adopted checkpoint must
// advance the merge without order entries instead of wedging it, stale
// deliveries behind the cursor must be dropped, and the skip must be
// visible through SubsumedSlots.
func TestSubsumedRoundsUnblockMerge(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Instances = 2
	g := newTestGroup(t, transport.KindTCP, cfg)
	e := g.Executors[0]
	req := func(ts uint64) []pbft.Request {
		return []pbft.Request{{Client: 9, Timestamp: ts, Op: []byte("x")}}
	}
	// Instance 1 commits rounds 1-2; instance 0's replica state-transfers
	// past them (its rounds 1-2 will never be delivered).
	e.deliver(1, 1, req(1))
	e.deliver(1, 2, req(2))
	if e.slots != 0 {
		t.Fatalf("merged %d slots before instance 0 resolved", e.slots)
	}
	e.subsume(0, 2)
	if e.slots != 4 {
		t.Fatalf("merged %d slots after subsume, want 4", e.slots)
	}
	if e.subsumedSlots != 2 {
		t.Fatalf("SubsumedSlots = %d, want 2", e.subsumedSlots)
	}
	if e.Backlog() != 0 {
		t.Fatalf("backlog %d after subsume, want 0", e.Backlog())
	}
	if len(e.order) != 2 {
		t.Fatalf("order has %d entries, want the 2 delivered requests", len(e.order))
	}
	// A late delivery for a subsumed (already passed) round is dropped,
	// not buffered forever.
	e.deliver(0, 1, nil)
	if e.Backlog() != 0 {
		t.Fatalf("stale delivery was buffered: backlog %d", e.Backlog())
	}
	// Normal merging continues beyond the subsumed prefix.
	e.deliver(0, 3, req(3))
	e.deliver(1, 3, req(4))
	if e.slots != 6 || e.Backlog() != 0 {
		t.Fatalf("merge did not resume: slots=%d backlog=%d", e.slots, e.Backlog())
	}
}

// TestAdaptiveBackoffResetsOnTraffic asserts the two halves of the
// adaptive delay: heartbeat rounds against an idle instance double its
// delay (up to the cap), and real traffic on that instance snaps it back
// to the floor.
func TestAdaptiveBackoffResetsOnTraffic(t *testing.T) {
	cfg := DefaultConfig()
	g := newTestGroup(t, transport.KindRDMA, cfg)
	cl, err := g.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	// Phase 1: hammer instance 0; instances 1..3 are idle and get filled
	// by heartbeats, backing their delays off.
	done := 0
	g.Loop.Post(func() {
		for i := 0; i < 24; i++ {
			cl.Invoke(opRoutedTo(t, cfg, 0, fmt.Sprintf("backoff-%d", i)), func([]byte) { done++ })
		}
	})
	g.Loop.Run()
	if done != 24 {
		t.Fatalf("phase 1 completed %d of 24", done)
	}
	ex := g.Executors[0]
	idle := 1
	backedOff := ex.hbDelay[idle]
	if backedOff <= cfg.HeartbeatDelay {
		t.Fatalf("idle instance %d delay %v did not back off beyond the floor %v",
			idle, backedOff, cfg.HeartbeatDelay)
	}
	if backedOff > cfg.HeartbeatMax {
		t.Fatalf("delay %v exceeded the cap %v", backedOff, cfg.HeartbeatMax)
	}
	// Phase 2: real traffic on the idle instance resets its delay.
	g.Loop.Post(func() {
		cl.Invoke(opRoutedTo(t, cfg, idle, "reset"), func([]byte) { done++ })
	})
	g.Loop.Run()
	if done != 25 {
		t.Fatalf("phase 2 completed %d of 25", done)
	}
	if got := ex.hbDelay[idle]; got != cfg.HeartbeatDelay {
		t.Errorf("delay after traffic = %v, want reset to floor %v", got, cfg.HeartbeatDelay)
	}
}

// TestDrainFormatsNothing merges pre-delivered batches on a bare executor
// and asserts the merge path allocates nothing per request — the order
// log records request identities, which is what GlobalOrder returns.
func TestDrainFormatsNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	cfg := DefaultConfig()
	loop := sim.NewLoop(1)
	hosts, err := pbft.NewHosts(loop, fabric.New(loop, model.Default()), transport.KindTCP, "", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g := &Group{Hosts: hosts, Config: cfg}
	e := newExecutor(g, 0)
	g.Executors = []*Executor{e}

	const runs, perBatch = 50, 8
	batches := make([][]pbft.Request, cfg.Instances)
	for k := range batches {
		for i := 0; i < perBatch; i++ {
			batches[k] = append(batches[k], pbft.Request{Client: uint32(100 + k), Timestamp: uint64(i + 1)})
		}
	}
	e.order = make([]pbft.RequestID, 0, (runs+1)*cfg.Instances*perBatch)
	mergeRound := func() {
		for k := range e.ready {
			e.ready[k][e.round] = batches[k]
		}
		e.drain()
	}
	if allocs := testing.AllocsPerRun(runs, mergeRound); allocs != 0 {
		t.Errorf("merging one round of %d requests allocates %.0f times, want 0", cfg.Instances*perBatch, allocs)
	}
	if e.Backlog() != 0 || e.slots != uint64((runs+1)*cfg.Instances) {
		t.Fatalf("merged %d slots with backlog %d", e.slots, e.Backlog())
	}
	order := g.GlobalOrder(0)
	if len(order) != (runs+1)*cfg.Instances*perBatch {
		t.Fatalf("global order holds %d requests", len(order))
	}
	for i, id := range order[:cfg.Instances*perBatch] {
		if want := batches[i/perBatch][i%perBatch].ID(); id != want {
			t.Fatalf("global order entry %d is %v, want %v", i, id, want)
		}
	}
}
