package reptor

import (
	"fmt"
	"math/rand"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/msgnet"
	"rubin/internal/pbft"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// TestSeededChaosInvariants runs COP groups under randomly generated but
// fully seeded fault schedules — link latency/jitter spikes, delayed-send
// replicas, and bounded single-replica isolations with heal — and asserts
// the invariants that must survive any such schedule, instance by
// instance:
//
//  1. liveness: every client operation completes;
//  2. agreement: every replica of an instance that executes a sequence
//     executes the same batch there;
//  3. exactly once: every operation is executed at exactly one sequence
//     of exactly one instance;
//  4. state convergence: each instance's replicas reach the same
//     application state.
//
// The schedule derives entirely from the seed, so a failure reproduces
// exactly by rerunning the seed.
func TestSeededChaosInvariants(t *testing.T) {
	kinds := []transport.Kind{transport.KindRDMA, transport.KindTCP, transport.KindRDMA, transport.KindTCP}
	for i, seed := range []int64{7, 11, 23, 42} {
		seed, kind := seed, kinds[i]
		t.Run(fmt.Sprintf("seed%d-%s", seed, kind), func(t *testing.T) {
			runSeededChaos(t, kind, seed)
		})
	}
}

func runSeededChaos(t *testing.T, kind transport.Kind, seed int64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Instances = 2 + int(seed%3) // 2..4 pipelines
	g, err := NewGroup(kind, cfg, model.Default(), seed, func(int) pbft.Application { return kvstore.New() })
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(); err != nil {
		t.Fatal(err)
	}
	// Each instance's ledger: the first batch any replica executed at a
	// sequence, as its digest and its requests. A later report at the
	// same sequence must carry the same digest.
	type entry struct {
		digest auth.Digest
		ids    []pbft.RequestID
	}
	ledgers := make([]map[uint64]entry, cfg.Instances)
	var disagreement error
	for k, reps := range g.Instances {
		ledgers[k] = make(map[uint64]entry)
		for i, rep := range reps {
			rep.OnExecute(func(seq uint64, batch []pbft.Request) {
				d := pbft.BatchDigest(batch)
				first, seen := ledgers[k][seq]
				if !seen {
					e := entry{digest: d}
					for _, req := range batch {
						e.ids = append(e.ids, req.ID())
					}
					ledgers[k][seq] = e
				} else if first.digest != d && disagreement == nil {
					disagreement = fmt.Errorf("instance %d: replica %d executed another batch at sequence %d", k, i, seq)
				}
			})
		}
	}
	const clients = 2
	cls := make([]*Client, clients)
	for i := range cls {
		if cls[i], err = g.AddClient(); err != nil {
			t.Fatal(err)
		}
	}

	// Build the fault schedule from the seed alone (independent of the
	// loop's random source, so the schedule is stable even if simulator
	// internals change their draw order).
	rng := rand.New(rand.NewSource(seed))
	n := g.Config.PBFT.N
	node := func(i int) *fabric.Node { return g.Network.Node(fmt.Sprintf("r%d", i)) }
	horizon := 400 * sim.Millisecond

	// Latency/jitter spikes on random replica links.
	for ev := 0; ev < 4; ev++ {
		i := rng.Intn(n)
		j := (i + 1 + rng.Intn(n-1)) % n
		at := sim.Time(rng.Int63n(int64(horizon * 3 / 4)))
		dur := 20*sim.Millisecond + sim.Time(rng.Int63n(int64(40*sim.Millisecond)))
		f := fabric.LinkFaults{
			ExtraLatency: sim.Time(rng.Int63n(int64(200 * sim.Microsecond))),
			Jitter:       sim.Time(rng.Int63n(int64(100 * sim.Microsecond))),
		}
		link := g.Network.Link(node(i), node(j))
		g.Loop.After(at, func() { link.SetFaults(f) })
		g.Loop.After(at+dur, func() { link.SetFaults(fabric.LinkFaults{}) })
	}
	// A delayed-send replica (slow process, not crashed): every instance
	// replica on that node delays its outbound traffic.
	for ev := 0; ev < 2; ev++ {
		i := rng.Intn(n)
		at := sim.Time(rng.Int63n(int64(horizon / 2)))
		dur := 20*sim.Millisecond + sim.Time(rng.Int63n(int64(30*sim.Millisecond)))
		delay := sim.Time(rng.Int63n(int64(300 * sim.Microsecond)))
		g.Loop.After(at, func() {
			for k := range g.Instances {
				g.Instances[k][i].SetOutbox(func(_ *msgnet.Peer, env []byte) ([]byte, sim.Time) { return env, delay })
			}
		})
		g.Loop.After(at+dur, func() {
			for k := range g.Instances {
				g.Instances[k][i].SetOutbox(nil)
			}
		})
	}
	// One bounded isolation: a random replica loses all replica links
	// (held-and-released, so stream transports survive), long enough to
	// force view changes in the instances it leads, then heals.
	{
		i := rng.Intn(n)
		at := 50*sim.Millisecond + sim.Time(rng.Int63n(int64(100*sim.Millisecond)))
		dur := 60*sim.Millisecond + sim.Time(rng.Int63n(int64(60*sim.Millisecond)))
		g.Loop.After(at, func() {
			for j := 0; j < n; j++ {
				if j != i {
					g.Network.Link(node(i), node(j)).SetFaults(fabric.LinkFaults{Down: true})
				}
			}
		})
		g.Loop.After(at+dur, func() {
			for j := 0; j < n; j++ {
				if j != i {
					g.Network.Link(node(i), node(j)).SetFaults(fabric.LinkFaults{})
				}
			}
		})
	}

	// Closed-loop workload across the fault horizon.
	const perClient = 150
	done := 0
	for ci := 0; ci < clients; ci++ {
		ci := ci
		sent := 0
		var sendOne func()
		sendOne = func() {
			idx := sent
			sent++
			op := kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("inv-%d-%04d", ci, idx), "v")
			cls[ci].Invoke(op, func([]byte) {
				done++
				if sent < perClient {
					sendOne()
				}
			})
		}
		g.Loop.Post(func() {
			for w := 0; w < 8 && sent < perClient; w++ {
				sendOne()
			}
		})
	}

	// Run well past the horizon so recovery (view changes, state
	// transfer) completes; the event cap turns a
	// livelock into a loud failure instead of a hung test.
	g.Loop.SetEventLimit(80_000_000)
	g.Loop.RunUntil(g.Loop.Now() + 4*horizon)

	if want := clients * perClient; done != want {
		t.Fatalf("seed %d: completed %d of %d operations (liveness lost)", seed, done, want)
	}
	if disagreement != nil {
		t.Fatalf("seed %d: %v", seed, disagreement)
	}
	executed := make(map[pbft.RequestID]int)
	for _, ledger := range ledgers {
		for _, e := range ledger {
			for _, id := range e.ids {
				executed[id]++
			}
		}
	}
	if len(executed) != clients*perClient {
		t.Errorf("seed %d: %d distinct operations executed, want %d", seed, len(executed), clients*perClient)
	}
	for id, c := range executed {
		if c != 1 {
			t.Errorf("seed %d: operation %v executed at %d sequences", seed, id, c)
		}
	}
	for k, apps := range g.Apps {
		for i := 1; i < len(apps); i++ {
			if apps[i].Snapshot() != apps[0].Snapshot() {
				t.Errorf("seed %d: instance %d: replica %d application state diverged", seed, k, i)
			}
		}
	}
}
