package pbft

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// liveSlots counts the cells of a replica's log that answer a lookup:
// what len(log) was while the log was a map.
func liveSlots(r *Replica) int {
	n := 0
	for seq := r.stable + 1; seq-r.stable <= r.cfg.LogWindow; seq++ {
		if r.lookup(seq) != nil {
			n++
		}
	}
	return n
}

// checkRing fails if the log grew, or if any cell is tagged with a
// sequence beyond the window (one at or below the stable point is what an
// earlier lap left behind, and reads as absent).
func checkRing(t *testing.T, r *Replica) {
	t.Helper()
	if len(r.log) != int(r.cfg.LogWindow) {
		t.Fatalf("log has %d cells, want LogWindow = %d", len(r.log), r.cfg.LogWindow)
	}
	for i, s := range r.log {
		if s == nil || s.seq == 0 {
			continue
		}
		if s.seq%r.cfg.LogWindow != uint64(i) || (s.seq > r.stable && !r.inWindow(s.seq)) {
			t.Fatalf("cell %d holds sequence %d: outside the window (%d, %d]", i, s.seq, r.stable, r.stable+r.cfg.LogWindow)
		}
	}
}

// bareReplica is replica id of a group of four alone on a loop, with no
// peers: protocol events are method calls, and every broadcast it attempts
// shows as N-1 send faults (no live handle). It admits client 100, a
// cluster's first front-end, whose id the tests' requests carry.
func bareReplica(t *testing.T, id uint32, cfg Config) *Replica {
	t.Helper()
	node := fabric.New(sim.NewLoop(1), model.Default()).AddNode(fmt.Sprintf("r%d", id))
	r, err := NewReplica(id, cfg, node, auth.GenerateKeyrings(cfg.N, 2)[id], kvstore.New())
	must(t, err)
	r.admit(100)
	return r
}

// TestLogRingWrapsAcrossLeaderCrash runs a window as small as Validate
// allows (LogWindow = CheckpointEvery = 4) through a few hundred requests,
// a batch of two at a time, and a leader crash halfway — from then on
// nothing reaches replica 0, and its timer never fires: the ring wraps
// dozens of times, in two views, and the survivors execute the same batch
// at every sequence.
func TestLogRingWrapsAcrossLeaderCrash(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 2
	cfg.CheckpointEvery, cfg.LogWindow = 4, 4
	h := newStepCluster(t, transport.KindTCP, cfg)
	executed := make([]map[uint64]auth.Digest, cfg.N)
	for i, rep := range h.Replicas {
		executed[i] = map[uint64]auth.Digest{}
		rep.OnExecute(func(seq uint64, batch []Request) {
			if _, twice := executed[i][seq]; twice {
				t.Errorf("replica %d executed sequence %d twice", i, seq)
			}
			executed[i][seq] = BatchDigest(batch)
			if live := liveSlots(rep); live > int(cfg.LogWindow) {
				t.Errorf("replica %d holds %d live slots at sequence %d, window is %d", i, live, seq, cfg.LogWindow)
			}
		})
	}
	const n = 300
	for ts := uint64(1); ts < n; ts += 2 {
		to := []int{0, 1, 2, 3}
		if ts > n/2 {
			to = to[1:]
		}
		h.submit(ts, to...)
		h.submit(ts+1, to...)
		if ts == n/2+1 {
			for i := 1; i < cfg.N; i++ {
				h.fire(i)
			}
		}
		h.drain(func(e envelope) bool { return ts < n/2 || e.to != 0 })
	}
	for ts := uint64(1); ts <= n; ts++ {
		if !h.completed(ts) {
			h.fatalf("request %d of %d did not complete", ts, n)
		}
	}
	for i := 1; i < cfg.N; i++ {
		rep := h.Replicas[i]
		checkRing(t, rep)
		if rep.View() == 0 || rep.Executed() < 20*cfg.LogWindow {
			h.fatalf("replica %d: view %d, executed %d; want a view change and >= 20 laps of the ring", i, rep.View(), rep.Executed())
		}
		if rep.Executed() != h.Replicas[1].Executed() || len(executed[i]) != len(executed[1]) {
			h.fatalf("replica %d executed %d sequences (to %d), replica 1 %d (to %d)", i, len(executed[i]), rep.Executed(), len(executed[1]), h.Replicas[1].Executed())
		}
		for seq, d := range executed[1] {
			if executed[i][seq] != d {
				h.fatalf("replica %d and replica 1 executed different batches at sequence %d", i, seq)
			}
		}
	}
	// What the crashed leader executed, the survivors executed too.
	for seq, d := range executed[0] {
		if executed[1][seq] != d {
			h.fatalf("the crashed leader and replica 1 executed different batches at sequence %d", seq)
		}
	}
}

// modelSlot is a slot of the log as it was before the ring: a map from
// sequence to slot, each slot two maps from replica to digest, swept when
// the stable point moves.
type modelSlot struct {
	pp                *auth.Digest
	prepares, commits map[uint32]auth.Digest
}

func newModelSlot() *modelSlot {
	return &modelSlot{prepares: map[uint32]auth.Digest{}, commits: map[uint32]auth.Digest{}}
}

// modelVote records a group member's vote; a sender outside the group is
// one authentication never lets through, so the model does not count it.
func modelVote(votes map[uint32]auth.Digest, id uint32, d auth.Digest) {
	if id < 4 {
		votes[id] = d
	}
}

func (m *modelSlot) count(votes map[uint32]auth.Digest) int {
	n := 0
	for _, d := range votes {
		if m.pp != nil && d == *m.pp {
			n++
		}
	}
	return n
}

// TestLogRingMatchesMapModel drives the ring and the map model with one
// random stream of proposals, votes, stable-point advances and NEW-VIEW
// resets — sequences drawn from well below to well above the window,
// replica ids from inside and outside the group — and compares, after
// every step and for every sequence near the window, whether a slot
// exists, what it proposes, its vote counts and the prepared and committed
// predicates.
func TestLogRingMatchesMapModel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CheckpointEvery, cfg.LogWindow = 4, 8
	// The first is an empty batch's, which a NEW-VIEW's empty re-proposals
	// hash to: a re-proposal's refs must match its digest.
	digests := []auth.Digest{BatchDigest(nil), auth.Hash([]byte("b")), auth.Hash([]byte("c"))}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := bareReplica(t, 3, cfg)
		log := map[uint64]*modelSlot{}
		inWindow := func(seq uint64) bool { return seq > r.stable && seq <= r.stable+cfg.LogWindow }
		slotFor := func(seq uint64) *modelSlot {
			if log[seq] == nil {
				log[seq] = newModelSlot()
			}
			return log[seq]
		}
		for step := 0; step < 3000; step++ {
			// Mostly inside the window, sometimes just outside or far away.
			seq := r.stable + uint64(rng.Intn(int(cfg.LogWindow)+4))
			if rng.Intn(20) == 0 {
				seq = []uint64{0, r.stable + 2*cfg.LogWindow, math.MaxUint64}[rng.Intn(3)]
			}
			id, d := uint32(rng.Intn(cfg.N+1)), digests[rng.Intn(len(digests))]
			switch op := rng.Intn(100); {
			case op < 20: // a proposal
				if s := r.slotFor(seq); s != nil {
					s.propose(PrePrepare{View: r.view, Seq: seq, Digest: d})
				}
				if inWindow(seq) {
					slotFor(seq).pp = &d
				}
			case op < 55: // a PREPARE
				if s := r.slotFor(seq); s != nil {
					s.prepares.set(id, d)
				}
				if inWindow(seq) {
					modelVote(slotFor(seq).prepares, id, d)
				}
			case op < 90: // a COMMIT
				if s := r.slotFor(seq); s != nil {
					s.commits.set(id, d)
				}
				if inWindow(seq) {
					modelVote(slotFor(seq).commits, id, d)
				}
			case op < 96: // the stable point advances (execution is at or past it)
				to := r.stable + uint64(rng.Intn(int(cfg.LogWindow)+2))
				r.executed = max(r.executed, to)
				r.advanceStable(to)
				for at := range log {
					if at <= to {
						delete(log, at)
					}
				}
			default: // a NEW-VIEW re-proposing a few empty batches, in and out of the window
				d := digests[0]
				nv := NewView{View: r.view + 1}
				for k := rng.Intn(4); k > 0; k-- {
					at := r.stable + uint64(rng.Intn(int(cfg.LogWindow)+4))
					nv.PrePrepares = append(nv.PrePrepares, PrePrepare{View: nv.View, Seq: at, Digest: d})
				}
				r.handleNewView(r.Leader(nv.View), nv)
				frontier := r.executed
				for _, pp := range nv.PrePrepares {
					if pp.Seq <= r.executed || !inWindow(pp.Seq) {
						continue
					}
					fresh := newModelSlot()
					fresh.pp = &d
					if r.Leader(nv.View) != r.id {
						fresh.prepares[r.id] = d
					}
					log[pp.Seq] = fresh
					frontier = max(frontier, pp.Seq)
				}
				for at := range log {
					if at > frontier {
						delete(log, at)
					}
				}
			}
			checkRing(t, r)
			for _, at := range []uint64{0, r.stable + 2*cfg.LogWindow, math.MaxUint64} {
				if r.lookup(at) != nil {
					t.Fatalf("seed %d step %d: a slot answers for sequence %d, window is (%d, %d]", seed, step, at, r.stable, r.stable+cfg.LogWindow)
				}
			}
			for at := r.stable - min(r.stable, 2); at <= r.stable+cfg.LogWindow+2; at++ {
				got, want := r.lookup(at), log[at]
				if (got == nil) != (want == nil) {
					t.Fatalf("seed %d step %d: sequence %d (stable %d): ring has a slot = %v, model = %v", seed, step, at, r.stable, got != nil, want != nil)
				}
				if got == nil {
					continue
				}
				if got.proposed != (want.pp != nil) || (got.proposed && got.pp.Digest != *want.pp) {
					t.Fatalf("seed %d step %d: sequence %d: ring and model hold different proposals", seed, step, at)
				}
				if want.pp == nil {
					if r.prepared(got) {
						t.Fatalf("seed %d step %d: sequence %d prepared without a proposal", seed, step, at)
					}
					continue
				}
				p, c := want.count(want.prepares), want.count(want.commits)
				if got.prepares.count(*want.pp) != p || got.commits.count(*want.pp) != c {
					t.Fatalf("seed %d step %d: sequence %d: ring counts %d prepares and %d commits, model %d and %d",
						seed, step, at, got.prepares.count(*want.pp), got.commits.count(*want.pp), p, c)
				}
				if r.prepared(got) != (p >= 2*cfg.F) || r.committedSlot(got) != (p >= 2*cfg.F && c >= cfg.Quorum()) {
					t.Fatalf("seed %d step %d: sequence %d: prepared=%v committed=%v with %d prepares and %d commits",
						seed, step, at, r.prepared(got), r.committedSlot(got), p, c)
				}
			}
		}
	}
}

// TestAdversarialSequencesStayOutsideTheLog feeds one replica every
// sequence-carrying message with the sequences an honest sender never
// uses — 0, the stable point, one past the window, the largest there is —
// and a NEW-VIEW naming a hundred thousand sequences. Nothing panics, no
// cell is ever tagged outside the window, and nothing is broadcast for
// such a sequence: a bare replica has no peers, so any broadcast would
// show as send faults.
func TestAdversarialSequencesStayOutsideTheLog(t *testing.T) {
	cfg := DefaultConfig()
	d := BatchDigest(nil)
	fresh := func(id uint32) *Replica {
		r := bareReplica(t, id, cfg)
		r.adoptCheckpoint(64, auth.Digest{}, 0) // stable = executed = 64
		return r
	}
	outside := func(r *Replica) []uint64 {
		return []uint64{0, r.stable, r.stable + cfg.LogWindow + 1, math.MaxUint64}
	}
	quiet := func(name string, r *Replica, deliver func(seq uint64)) {
		t.Helper()
		for _, seq := range outside(r) {
			before := *r.sendFaults
			deliver(seq)
			checkRing(t, r)
			if r.lookup(seq) != nil || liveSlots(r) != 0 {
				t.Fatalf("%s with sequence %d: the log holds a slot", name, seq)
			}
			if *r.sendFaults != before {
				t.Fatalf("%s with sequence %d: the replica broadcast something", name, seq)
			}
		}
	}

	r := fresh(3)
	quiet("PRE-PREPARE", r, func(seq uint64) {
		r.handlePrePrepare(0, PrePrepare{View: 0, Seq: seq, Digest: d}, 64)
	})
	quiet("PREPARE", r, func(seq uint64) {
		for id := uint32(1); id < 3; id++ {
			r.handlePrepare(Prepare{View: 0, Seq: seq, Digest: d, Replica: id})
		}
	})
	quiet("COMMIT", r, func(seq uint64) {
		for id := uint32(0); id < 3; id++ {
			r.handleCommit(Commit{View: 0, Seq: seq, Digest: d, Replica: id})
		}
	})
	quiet("NEW-VIEW", r, func(seq uint64) {
		view := r.view + 1
		for r.Leader(view) == r.id {
			view++
		}
		r.handleNewView(r.Leader(view), NewView{View: view, PrePrepares: []PrePrepare{{View: view, Seq: seq, Digest: d}}})
	})

	// CHECKPOINT: a vote may be remembered (a lagging replica needs votes
	// far ahead of its window — ROADMAP O13 records that they are unbounded)
	// and F+1 of them may start a state transfer, but the log is not theirs
	// to touch.
	r = fresh(3)
	for _, seq := range outside(r) {
		for id := uint32(0); id < 3; id++ {
			r.recordCheckpoint(id, Checkpoint{Seq: seq, Digest: d, Replica: id})
		}
		checkRing(t, r)
		if liveSlots(r) != 0 {
			t.Fatalf("CHECKPOINT with sequence %d: the log holds a slot", seq)
		}
	}

	// VIEW-CHANGE: replica 1 leads view 1. A quorum whose proofs and stable
	// points lie about sequences makes it install the view; the NEW-VIEW it
	// builds is bounded by the window, whatever the proofs claim.
	for _, stable := range []uint64{0, 64, math.MaxUint64} {
		r = fresh(1)
		for _, seq := range outside(r) {
			view := r.view + 1
			for r.Leader(view) != r.id {
				view++
			}
			for _, id := range []uint32{0, 2, 3} {
				r.handleViewChange(ViewChange{NewView: view, Stable: stable, Replica: id,
					Prepared: []PreparedProof{{View: 0, Seq: seq, Digest: d}}})
			}
			checkRing(t, r)
			if r.view != view {
				t.Fatalf("VIEW-CHANGE quorum (stable %d, proof at %d): view %d not installed", stable, seq, view)
			}
			if r.lookup(seq) != nil || liveSlots(r) > int(cfg.LogWindow) {
				t.Fatalf("VIEW-CHANGE quorum (stable %d, proof at %d): %d live slots, one of them outside the window", stable, seq, liveSlots(r))
			}
		}
	}

	// A NEW-VIEW naming 10^5 sequences gets a slot and a PREPARE for the
	// LogWindow of them inside the window, and for no other.
	r = fresh(3)
	nv := NewView{View: 1, PrePrepares: make([]PrePrepare, 100_000)}
	for i := range nv.PrePrepares {
		nv.PrePrepares[i] = PrePrepare{View: 1, Seq: uint64(i + 1), Digest: d}
	}
	before := *r.sendFaults
	r.handleNewView(1, nv)
	checkRing(t, r)
	if live := liveSlots(r); live != int(cfg.LogWindow) {
		t.Fatalf("a NEW-VIEW naming %d sequences left %d live slots, want the window's %d", len(nv.PrePrepares), live, cfg.LogWindow)
	}
	if sent := (*r.sendFaults - before) / uint64(cfg.N-1); sent != cfg.LogWindow {
		t.Fatalf("a NEW-VIEW naming %d sequences drew %d broadcasts, want one PREPARE per slot in the window (%d)", len(nv.PrePrepares), sent, cfg.LogWindow)
	}
}
