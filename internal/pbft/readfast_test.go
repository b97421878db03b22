package pbft

import (
	"bytes"
	"fmt"
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/msgnet"
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// newReadTestClient builds a bare client with n attached (nil) replica
// slots and the fast path enabled — enough to drive the read-quorum
// logic directly through handleReadReply without a network.
func newReadTestClient(f, n int) (*Client, *sim.Loop) {
	loop := sim.NewLoop(1)
	cl := NewClient(1, f, fabric.New(loop, model.Default()).AddNode("client"))
	cl.EnableReadFastPath(loop, 2*sim.Millisecond)
	cl.conns = make([]*msgnet.Peer, n)
	return cl, loop
}

// vote builds one tentative reply for the quorum table tests.
func vote(replica uint32, result string, executed uint64) ReadReply {
	return ReadReply{Timestamp: 1, Client: 1, Replica: replica, Executed: executed, Result: []byte(result)}
}

func TestReadQuorumTable(t *testing.T) {
	cases := []struct {
		name  string
		votes []ReadReply
		// wantFast: accepted on 2F+1 matching tentative replies.
		// wantFallback: resubmitted through the ordered path.
		// Neither: the invocation is still waiting for votes.
		wantFast     bool
		wantFallback bool
		wantResult   string
	}{
		{
			name:       "2F+1 matching values accept",
			votes:      []ReadReply{vote(0, "v", 7), vote(1, "v", 7), vote(2, "v", 7)},
			wantFast:   true,
			wantResult: "v",
		},
		{
			name: "matching values at different state positions accept",
			// The quorum matches on result bytes; the Executed tag is
			// diagnostic, so replicas mid-execution still form a quorum.
			votes:      []ReadReply{vote(0, "v", 5), vote(1, "v", 6), vote(3, "v", 9)},
			wantFast:   true,
			wantResult: "v",
		},
		{
			name:  "F+1 matching is not enough",
			votes: []ReadReply{vote(0, "v", 7), vote(1, "v", 7)},
		},
		{
			name: "split vote falls back once every replica answered",
			votes: []ReadReply{
				vote(0, "a", 7), vote(1, "a", 7), vote(2, "b", 8), vote(3, "b", 8),
			},
			wantFallback: true,
		},
		{
			name: "equivocating replica cannot fill the quorum",
			// Replica 3 votes three times; only its first vote counts, so
			// two distinct replicas have voted "v" — short of 2F+1.
			votes: []ReadReply{vote(0, "v", 7), vote(3, "v", 7), vote(3, "v", 8), vote(3, "v", 9)},
		},
		{
			name: "equivocating value flips cannot complete a split",
			// Replica 3 first votes "b", then tries to switch to "a" to
			// complete a quorum for "a": the flip must be ignored.
			votes: []ReadReply{vote(0, "a", 7), vote(1, "a", 7), vote(3, "b", 8), vote(3, "a", 7)},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cl, _ := newReadTestClient(1, 4)
			var result []byte
			fired := 0
			cl.InvokeRead([]byte("op"), func(res []byte) { result = res; fired++ })
			for _, v := range tc.votes {
				cl.handleReadReply(v)
			}
			if got := cl.FastReads() == 1; got != tc.wantFast {
				t.Fatalf("fast accept = %v, want %v", got, tc.wantFast)
			}
			if got := cl.FastReadFallbacks() == 1; got != tc.wantFallback {
				t.Fatalf("fallback = %v, want %v", got, tc.wantFallback)
			}
			switch {
			case tc.wantFast:
				if fired != 1 || string(result) != tc.wantResult {
					t.Fatalf("done fired %d times with %q, want once with %q", fired, result, tc.wantResult)
				}
				if cl.Outstanding() != 0 {
					t.Fatalf("%d invocations outstanding after accept", cl.Outstanding())
				}
			case tc.wantFallback:
				if fired != 0 {
					t.Fatal("done fired before the ordered retry completed")
				}
				if cl.Outstanding() != 1 {
					t.Fatalf("outstanding = %d, want 1 (the ordered retry)", cl.Outstanding())
				}
			default:
				if fired != 0 {
					t.Fatal("done fired without a quorum")
				}
				if cl.Outstanding() != 1 {
					t.Fatalf("outstanding = %d, want 1 (still waiting)", cl.Outstanding())
				}
			}
		})
	}
}

// TestReadTimeoutFallsBackAndCompletesOrdered drives the timer-based
// fallback: a read stuck on split votes resubmits through the ordered
// path after the timeout, completes under its original trace key, and
// keeps the invoked/completed accounting at one logical operation.
func TestReadTimeoutFallsBackAndCompletesOrdered(t *testing.T) {
	cl, loop := newReadTestClient(1, 4)
	var hooks []bool
	cl.SetReadPathHook(func(_ string, fast bool) { hooks = append(hooks, fast) })
	var result []byte
	fired := 0
	key := cl.InvokeRead([]byte("op"), func(res []byte) { result, fired = res, fired+1 })
	cl.handleReadReply(vote(0, "a", 7))
	cl.handleReadReply(vote(1, "b", 8))
	loop.Run() // the fallback timer fires
	if cl.FastReadFallbacks() != 1 {
		t.Fatalf("fallbacks = %d, want 1", cl.FastReadFallbacks())
	}
	if key == "" {
		t.Fatal("InvokeRead returned an empty trace key")
	}
	// The ordered retry runs under timestamp 2; F+1 matching replies
	// complete it.
	cl.handleReply(Reply{Timestamp: 2, Client: 1, Replica: 0, Result: []byte("ordered")})
	cl.handleReply(Reply{Timestamp: 2, Client: 1, Replica: 1, Result: []byte("ordered")})
	if string(result) != "ordered" {
		t.Fatalf("result = %q, want the ordered retry's", result)
	}
	if len(hooks) != 1 || hooks[0] != false {
		t.Fatalf("path hook = %v, want one ordered-path report", hooks)
	}
	if fired != 1 || cl.Outstanding() != 0 {
		t.Fatalf("done fired %d times, outstanding=%d, want 1/0", fired, cl.Outstanding())
	}
}

// TestReadFastPathServesReads is the end-to-end happy path on both
// transports: a written value is read back through the multicast fast
// path, replicas report tentative serves, and no agreement instance ran
// for the read.
func TestReadFastPathServesReads(t *testing.T) {
	for _, kind := range kinds() {
		t.Run(string(kind), func(t *testing.T) {
			c := newTestCluster(t, kind, DefaultConfig(), 1)
			cl := c.Clients[0]
			cl.EnableReadFastPath(c.Loop, 2*sim.Millisecond)
			var paths []bool
			cl.SetReadPathHook(func(_ string, fast bool) { paths = append(paths, fast) })
			var got []byte
			c.Loop.Post(func() {
				cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, "alpha", "1"), func([]byte) {
					cl.InvokeRead(kvstore.EncodeOp(kvstore.OpGet, "alpha", ""), func(res []byte) {
						got = bytes.Clone(res) // lent until the callback returns
					})
				})
			})
			c.Loop.Run()
			if string(got) != "1" {
				t.Fatalf("fast read returned %q, want 1", got)
			}
			if cl.FastReads() != 1 || cl.FastReadFallbacks() != 0 {
				t.Fatalf("fastReads=%d fallbacks=%d, want 1/0", cl.FastReads(), cl.FastReadFallbacks())
			}
			if len(paths) != 1 || !paths[0] {
				t.Fatalf("path hook = %v, want one fast-path report", paths)
			}
			served := 0
			for _, rep := range c.Replicas {
				served += int(*rep.readsServed)
				// The read must not have entered the log: only the write
				// was ordered.
				if rep.Executed() != 1 {
					t.Fatalf("replica executed %d ordered ops, want 1 (the write)", rep.Executed())
				}
			}
			if served < 2*c.Config.F+1 {
				t.Fatalf("only %d replicas served the read tentatively, want >= %d", served, 2*c.Config.F+1)
			}
		})
	}
}

// TestReadOnlyDuringViewChange crashes the leader (and slows one backup
// past the read timeout) while fast reads are in flight: stuck reads
// must fall back to the ordered path, the view change must restore
// liveness, and the full history — fast and ordered reads interleaved
// with writes across the fault window — must stay linearizable.
func TestReadOnlyDuringViewChange(t *testing.T) {
	c := newTestCluster(t, transport.KindTCP, DefaultConfig(), 1)
	cl := c.Clients[0]
	cl.EnableReadFastPath(c.Loop, 500*sim.Microsecond)
	invoke := func(_ int, op []byte, done func([]byte)) string {
		if code, _, _, err := kvstore.DecodeOp(op); err == nil && code == kvstore.OpGet {
			return cl.InvokeRead(op, done)
		}
		return cl.Invoke(op, done)
	}
	d, err := workload.New(c.Loop, workload.Config{
		Users: 8, Conns: 1, Ops: 150, Warmup: 0,
		Keys:    workload.NewUniform(16),
		Mix:     workload.Mix{ReadPct: 70, WritePct: 30},
		Arrival: workload.Closed(1, 0), ValueSize: 16, Seed: 42,
	}, invoke)
	if err != nil {
		t.Fatal(err)
	}
	cl.SetReadPathHook(d.NotePath)
	// Mid-run: crash the view-0 leader and make replica 1 delay every
	// send past the read timeout — fast reads can no longer gather 2F+1
	// prompt matching replies and must fall back while the remaining
	// replicas elect a new view. The slowdown lifts later, the new view
	// (led by replica 1) speeds back up, and the run drains.
	c.Loop.After(300*sim.Microsecond, func() {
		c.Crash(0)
		c.Replicas[1].SetOutbox(delayed(800 * sim.Microsecond))
	})
	c.Loop.After(4*sim.Millisecond, func() {
		c.Replicas[1].SetOutbox(nil)
	})
	if err := d.Run(); err != nil {
		t.Fatalf("workload did not drain after the view change: %v", err)
	}
	if cl.Outstanding() != 0 {
		t.Fatalf("%d invocations left outstanding", cl.Outstanding())
	}
	if cl.FastReads() == 0 {
		t.Fatal("no fast reads served around the fault window")
	}
	if cl.FastReadFallbacks() == 0 {
		t.Fatal("no read fell back while the quorum was unreachable")
	}
	for i := 1; i < 4; i++ {
		if c.Replicas[i].View() == 0 {
			t.Fatalf("replica %d still in view 0 after the leader crash", i)
		}
	}
	if err := d.History().Check(); err != nil {
		t.Fatalf("history not linearizable across the view change: %v", err)
	}
	if d.History().FastOps() == 0 {
		t.Fatal("history recorded no fast-path operations")
	}
}

// staleApp wraps a kvstore and, once frozen, serves tentative reads
// from a stale snapshot while ordered execution continues on the live
// store — the Byzantine staleness hazard the fast path's oracle must
// catch.
type staleApp struct {
	*kvstore.Store
	frozen *kvstore.Store
}

func (a *staleApp) ExecuteReadOnly(op []byte) []byte {
	if a.frozen != nil {
		return a.frozen.ExecuteReadOnly(op)
	}
	return a.Store.ExecuteReadOnly(op)
}

// TestStaleFastReadsFailOracle is the adversarial self-test of the
// workload oracle: a cluster whose replicas serve fast-path replies
// from pre-write state produces matching 2F+1 quorums — the client
// cannot tell — but the recorded history must fail CheckLinearizable.
// The unfrozen control run proves the rejection is the staleness, not
// the harness.
func TestStaleFastReadsFailOracle(t *testing.T) {
	run := func(freeze bool) (*workload.History, []byte, error) {
		apps := make([]*staleApp, 4)
		c, err := NewCluster(transport.KindTCP, DefaultConfig(), model.Default(), 1,
			func(i int) Application {
				apps[i] = &staleApp{Store: kvstore.New()}
				return apps[i]
			})
		if err != nil {
			return nil, nil, err
		}
		if err := c.Start(); err != nil {
			return nil, nil, err
		}
		cl, err := c.AddClient()
		if err != nil {
			return nil, nil, err
		}
		cl.EnableReadFastPath(c.Loop, 2*sim.Millisecond)
		h := &workload.History{}
		record := func(kind workload.Kind, value, result string, inv, ret sim.Time) {
			h.Add(workload.Op{
				Kind: kind, Key: "k", Value: value, Result: result,
				Arrive: inv, Invoke: inv, Return: ret, Measured: true,
			})
		}
		var readResult []byte
		c.Loop.Post(func() {
			t0 := c.Loop.Now()
			cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, "k", "v1"), func([]byte) {
				record(workload.Write, "v1", "", t0, c.Loop.Now())
				if freeze {
					// Snapshot the post-v1 state; from here on every
					// replica answers tentative reads from it, however
					// far the live store advances.
					snap := kvstore.New()
					snap.Execute(kvstore.EncodeOp(kvstore.OpPut, "k", "v1"))
					for _, a := range apps {
						a.frozen = snap
					}
				}
				// Strictly sequential intervals: were an operation's invoke
				// to touch its predecessor's return instant, the checker
				// could legally reorder them and mask the staleness.
				c.Loop.After(sim.Microsecond, func() {
					t1 := c.Loop.Now()
					cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, "k", "v2"), func([]byte) {
						record(workload.Write, "v2", "", t1, c.Loop.Now())
						c.Loop.After(sim.Microsecond, func() {
							t2 := c.Loop.Now()
							cl.InvokeRead(kvstore.EncodeOp(kvstore.OpGet, "k", ""), func(res []byte) {
								readResult = bytes.Clone(res) // lent until the callback returns
								record(workload.Read, "", string(res), t2, c.Loop.Now())
							})
						})
					})
				})
			})
		})
		c.Loop.Run()
		if cl.FastReads() != 1 {
			return nil, nil, fmt.Errorf("read not served by the fast path (fast=%d fallbacks=%d)",
				cl.FastReads(), cl.FastReadFallbacks())
		}
		return h, readResult, nil
	}

	h, res, err := run(true)
	must(t, err)
	// All four replicas froze identically, so the stale value forms a
	// perfectly matching quorum — undetectable at the protocol level.
	if string(res) != "v1" {
		t.Fatalf("stale-serving replicas returned %q, want the stale v1", res)
	}
	if err := h.CheckLinearizable(); err == nil {
		t.Fatal("oracle accepted a history with a stale fast read")
	}

	h, res, err = run(false)
	must(t, err)
	if string(res) != "v2" {
		t.Fatalf("honest replicas returned %q, want v2", res)
	}
	if err := h.CheckLinearizable(); err != nil {
		t.Fatalf("oracle rejected the honest control run: %v", err)
	}
}

// TestClientBindsReplyVotesToConnections: replies are unauthenticated, so
// the only thing that makes F+1 of them a quorum is that each connection
// votes once, as the replica it was attached for. One Byzantine replica
// that sends replies claiming its peers' identities over its own
// connection — F+1 ordered ones, 2F+1 tentative reads — completes nothing.
func TestClientBindsReplyVotesToConnections(t *testing.T) {
	c := newTestCluster(t, transport.KindTCP, DefaultConfig(), 1)
	cl := c.Clients[0]
	cl.EnableReadFastPath(c.Loop, 2*sim.Millisecond)
	// The honest replicas stay silent, so every reply the client sees is
	// replica 3's.
	for i := 0; i < 3; i++ {
		c.Crash(i)
	}
	var results []string
	done := func(res []byte) { results = append(results, string(res)) }
	start := c.Loop.Now()
	c.Loop.Post(func() {
		cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, "k", "v"), done)    // timestamp 1
		cl.InvokeRead(kvstore.EncodeOp(kvstore.OpGet, "k", ""), done) // timestamp 2
	})
	c.Loop.RunUntil(start + sim.Millisecond) // the requests arrive: replica 3 knows the client's connection
	byzantine := c.Replicas[3]
	for id := uint32(0); id < 3; id++ {
		byzantine.sendToClient(byzantine.client(cl.ID()).conn, Reply{Timestamp: 1, Client: cl.ID(), Replica: id, Result: []byte("forged")})
		byzantine.sendToClient(byzantine.client(cl.ID()).conn, ReadReply{Timestamp: 2, Client: cl.ID(), Replica: id, Result: []byte("forged")})
	}
	c.Loop.RunUntil(start + 3*sim.Millisecond/2) // delivered, and before the read's fallback timer
	if len(results) != 0 || cl.Outstanding() != 2 || cl.FastReads() != 0 {
		t.Fatalf("one replica's forged replies completed %q (outstanding %d, fast reads %d); want nothing completed",
			results, cl.Outstanding(), cl.FastReads())
	}
}
