package shard

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"rubin/internal/chaos"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/pbft"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// defaultConfig is k groups over the default PBFT parameters.
func defaultConfig(k int) Config { return Config{Shards: k, PBFT: pbft.DefaultConfig()} }

// testConfig shrinks batches and checkpoint intervals so recovery
// happens within short virtual windows, like the chaos suite does.
func testConfig(shards int) Config {
	cfg := defaultConfig(shards)
	cfg.PBFT.BatchSize = 2
	cfg.PBFT.CheckpointEvery = 4
	cfg.PBFT.LogWindow = 64
	return cfg
}

// placements are the two ways to place the groups: on hosts of their own
// (New) or side by side on one set of hosts (NewCOP).
var placements = []struct {
	name  string
	build func(transport.Kind, Config, model.Params, int64) (*Deployment, error)
}{{"shards", New}, {"cop", NewCOP}}

// newTestDeployment builds a deployment of groups over testConfig at seed
// 1, starts it and adds one router.
func newTestDeployment(t *testing.T, build func(transport.Kind, Config, model.Params, int64) (*Deployment, error), kind transport.Kind, groups int) (*Deployment, *Router) {
	t.Helper()
	d, err := build(kind, testConfig(groups), model.Default(), 1)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := d.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	r, err := d.AddRouter()
	if err != nil {
		t.Fatalf("AddRouter: %v", err)
	}
	return d, r
}

// keyOn returns a key with the given tag prefix that PartitionKey
// assigns to the wanted shard.
func keyOn(shard, parts int, tag string) string {
	for i := 0; ; i++ {
		k := fmt.Sprintf("%s%d", tag, i)
		if kvstore.PartitionKey(k, parts) == shard {
			return k
		}
	}
}

// store returns replica i's state machine of shard s.
func store(d *Deployment, s, i int) *kvstore.Store {
	return d.Clusters[s].Apps[i].(*kvstore.Store)
}

func TestConfigValidate(t *testing.T) {
	if err := defaultConfig(2).Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := defaultConfig(2)
	bad.Shards = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("Shards=0 accepted")
	}
	bad = defaultConfig(2)
	bad.PBFT.N = 3
	if err := bad.Validate(); err == nil {
		t.Fatal("an invalid PBFT config accepted")
	}
}

func TestSingleKeyOpsRouteToOwningShard(t *testing.T) {
	const S = 2
	d, r := newTestDeployment(t, New, transport.KindRDMA, S)
	const n = 8
	keys := make([]string, n)
	got := make([]string, n)
	for i := 0; i < n; i++ {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	d.Loop.Post(func() {
		for i, k := range keys {
			i, k := i, k
			r.InvokeOp(kvstore.EncodeOp(kvstore.OpPut, k, fmt.Sprintf("v%d", i)), func(res []byte) {
				if string(res) != "OK" {
					t.Errorf("put %s: %q", k, res)
				}
				r.InvokeOp(kvstore.EncodeOp(kvstore.OpGet, k, ""), func(res []byte) {
					got[i] = string(res)
				})
			})
		}
	})
	d.Loop.Run()
	for i, k := range keys {
		if want := fmt.Sprintf("v%d", i); got[i] != want {
			t.Errorf("get %s = %q, want %q", k, got[i], want)
		}
		// The key lives on exactly the shard PartitionKey names, on
		// every replica of that shard, and nowhere else.
		owner := kvstore.PartitionKey(k, S)
		for s := 0; s < S; s++ {
			for i := 0; i < d.Config.PBFT.N; i++ {
				if _, ok := store(d, s, i).Get(k); ok != (s == owner) {
					t.Errorf("key %s on shard %d replica %d: present=%v, owner=%d", k, s, i, ok, owner)
				}
			}
		}
	}
	if err := r.Errs(); err != nil {
		t.Fatalf("router errors: %v", err)
	}
}

func TestScanMergesAcrossShards(t *testing.T) {
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			d, r := newTestDeployment(t, pl.build, transport.KindRDMA, 4)
			var want []string
			d.Loop.Post(func() {
				for i := 0; i < 20; i++ {
					k := fmt.Sprintf("acct%02d", i)
					want = append(want, fmt.Sprintf("%s=%d", k, i))
					r.InvokeOp(kvstore.EncodeOp(kvstore.OpPut, k, fmt.Sprintf("%d", i)), nil)
					r.InvokeOp(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("other%02d", i), "x"), nil)
				}
			})
			d.Loop.Run()
			sort.Strings(want)
			var full, capped string
			d.Loop.Post(func() {
				r.InvokeOp(kvstore.EncodeOp(kvstore.OpScan, "acct", ""), func(res []byte) { full = string(res) })
				r.InvokeOp(kvstore.EncodeOp(kvstore.OpScan, "acct", "7"), func(res []byte) { capped = string(res) })
			})
			d.Loop.Run()
			if full != strings.Join(want, "\n") {
				t.Errorf("scan = %q, want %q", full, strings.Join(want, "\n"))
			}
			if capped != strings.Join(want[:7], "\n") {
				t.Errorf("capped scan = %q, want %q", capped, strings.Join(want[:7], "\n"))
			}
		})
	}
}

// invokeTxn submits a transaction through the router and records its
// decoded status into statuses[id] when the reply lands.
func invokeTxn(d *Deployment, r *Router, statuses map[string]string, id string, subs []kvstore.TxnSub) {
	d.Loop.Post(func() {
		r.InvokeOp(kvstore.EncodeTxn(id, subs), func(res []byte) {
			status, _, err := kvstore.DecodeTxnResult(res)
			if err != nil {
				status = "ERR " + string(res)
			}
			statuses[id] = status
		})
	})
}

// TestCrossShardTxnCommitsAtomically runs one transaction over two groups'
// keys through 2PC, on both placements: co-located groups coordinate
// through the same router as shards do.
func TestCrossShardTxnCommitsAtomically(t *testing.T) {
	const S = 2
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			d, r := newTestDeployment(t, pl.build, transport.KindRDMA, S)
			ka, kb := keyOn(0, S, "a"), keyOn(1, S, "b")
			statuses := map[string]string{}
			invokeTxn(d, r, statuses, "w", []kvstore.TxnSub{
				{Code: kvstore.OpPut, Key: ka, Value: "1"},
				{Code: kvstore.OpPut, Key: kb, Value: "2"},
			})
			d.Loop.Run()
			if statuses["w"] != kvstore.TxnCommitted {
				t.Fatalf("writer txn status = %q", statuses["w"])
			}
			if *r.txns2PC != 1 {
				t.Fatalf("shard.cross_shard_txns = %d, want 1", *r.txns2PC)
			}

			// A cross-shard reader observes both writes; its reply carries the
			// read values in sub order.
			var readRes [][]byte
			d.Loop.Post(func() {
				r.InvokeOp(kvstore.EncodeTxn("r", []kvstore.TxnSub{
					{Code: kvstore.OpGet, Key: kb},
					{Code: kvstore.OpGet, Key: ka},
				}), func(res []byte) {
					status, rs, err := kvstore.DecodeTxnResult(res)
					if err != nil || status != kvstore.TxnCommitted {
						t.Errorf("reader txn reply %q (err %v)", res, err)
					}
					readRes = rs
				})
			})
			d.Loop.Run()
			if len(readRes) != 2 || string(readRes[0]) != "2" || string(readRes[1]) != "1" {
				t.Fatalf("reader results = %q, want [2 1]", readRes)
			}

			// Nothing stays staged or locked once the decisions executed.
			for s := 0; s < S; s++ {
				for i := 0; i < d.Config.PBFT.N; i++ {
					if ids := store(d, s, i).Prepared(); len(ids) != 0 {
						t.Errorf("shard %d replica %d still stages %v", s, i, ids)
					}
					for _, k := range []string{ka, kb} {
						if h := store(d, s, i).LockHolder(k); h != "" {
							t.Errorf("shard %d replica %d still locks %s for %s", s, i, k, h)
						}
					}
				}
			}
			if err := r.Errs(); err != nil {
				t.Fatalf("router errors: %v", err)
			}
		})
	}
}

func TestSingleShardTxnTakesFastPath(t *testing.T) {
	const S = 2
	d, r := newTestDeployment(t, New, transport.KindRDMA, S)
	ka, kb := keyOn(0, S, "p"), keyOn(0, S, "q")
	statuses := map[string]string{}
	invokeTxn(d, r, statuses, "fast", []kvstore.TxnSub{
		{Code: kvstore.OpPut, Key: ka, Value: "1"},
		{Code: kvstore.OpPut, Key: kb, Value: "2"},
	})
	d.Loop.Run()
	if statuses["fast"] != kvstore.TxnCommitted {
		t.Fatalf("txn status = %q", statuses["fast"])
	}
	if *r.txns2PC != 0 {
		t.Fatalf("shard.cross_shard_txns = %d, want 0 (one-phase fast path)", *r.txns2PC)
	}
	if v, _ := store(d, 0, 0).Get(ka); v != "1" {
		t.Fatalf("%s = %q, want 1", ka, v)
	}
}

// TestConflictingTxnsNeverTear drives two concurrent cross-shard
// transactions over the same keys. Whatever the interleaving decides —
// both may commit serially, or no-wait locking may abort one or both —
// the surviving state must be exactly one transaction's write set,
// never a mix, and no locks or staged state may leak.
func TestConflictingTxnsNeverTear(t *testing.T) {
	const S = 2
	d, r := newTestDeployment(t, New, transport.KindRDMA, S)
	ka, kb := keyOn(0, S, "x"), keyOn(1, S, "y")
	statuses := map[string]string{}
	for _, id := range []string{"A", "B"} {
		invokeTxn(d, r, statuses, id, []kvstore.TxnSub{
			{Code: kvstore.OpPut, Key: ka, Value: id + ".1"},
			{Code: kvstore.OpPut, Key: kb, Value: id + ".2"},
		})
	}
	d.Loop.Run()
	committed := 0
	for id, st := range statuses {
		switch st {
		case kvstore.TxnCommitted:
			committed++
		case kvstore.TxnAborted:
		default:
			t.Fatalf("txn %s status = %q", id, st)
		}
	}
	va, okA := store(d, 0, 0).Get(ka)
	vb, okB := store(d, 1, 0).Get(kb)
	if committed == 0 {
		if okA || okB {
			t.Fatalf("no txn committed but keys exist: %q %q", va, vb)
		}
	} else {
		if !okA || !okB {
			t.Fatalf("committed txn left a hole: %v %v", okA, okB)
		}
		// Atomicity: both keys carry the same transaction's values.
		if va[:1] != vb[:1] {
			t.Fatalf("torn write: %s=%q %s=%q", ka, va, kb, vb)
		}
		if statuses[va[:1]] != kvstore.TxnCommitted {
			t.Fatalf("state holds writes of txn %s with status %q", va[:1], statuses[va[:1]])
		}
	}
	for s := 0; s < S; s++ {
		if ids := store(d, s, 0).Prepared(); len(ids) != 0 {
			t.Fatalf("shard %d still stages %v", s, ids)
		}
	}
	if err := r.Errs(); err != nil {
		t.Fatalf("router errors: %v", err)
	}
}

// TestLockedWriteRetriesUntilDecided races a plain single-key write
// against a cross-shard transaction locking the same key. The write
// may be refused with LOCKED while the transaction is in doubt; the
// router must retry it to completion, and the final value must be one
// of the two writers' — with the transaction's partner key intact.
func TestLockedWriteRetriesUntilDecided(t *testing.T) {
	const S = 2
	d, r := newTestDeployment(t, New, transport.KindRDMA, S)
	ka, kb := keyOn(0, S, "m"), keyOn(1, S, "n")
	statuses := map[string]string{}
	invokeTxn(d, r, statuses, "T", []kvstore.TxnSub{
		{Code: kvstore.OpPut, Key: ka, Value: "txn"},
		{Code: kvstore.OpPut, Key: kb, Value: "txn"},
	})
	var putRes string
	d.Loop.Post(func() {
		r.InvokeOp(kvstore.EncodeOp(kvstore.OpPut, ka, "plain"), func(res []byte) {
			putRes = string(res)
		})
	})
	d.Loop.Run()
	if putRes != "OK" {
		t.Fatalf("single-key put finished %q, want OK", putRes)
	}
	if statuses["T"] != kvstore.TxnCommitted && statuses["T"] != kvstore.TxnAborted {
		t.Fatalf("txn status = %q", statuses["T"])
	}
	va, _ := store(d, 0, 0).Get(ka)
	if va != "txn" && va != "plain" {
		t.Fatalf("%s = %q, want txn or plain", ka, va)
	}
	if statuses["T"] == kvstore.TxnCommitted {
		if vb, _ := store(d, 1, 0).Get(kb); vb != "txn" {
			t.Fatalf("committed txn's partner key %s = %q", kb, vb)
		}
	}
	if r.Outstanding() != 0 {
		t.Fatalf("router still has %d outstanding ops", r.Outstanding())
	}
}

// TestShardLeaderCrashMid2PC is the chaos smoke for the sharded
// deployment: shard 0's leader is crashed while cross-shard
// transactions are in flight. Shard 1 must keep committing single-key
// writes throughout the outage (fault isolation), and every in-flight
// transaction must still commit once shard 0's view change elects a new
// leader — 2PC over consensus leaves no transaction wedged by one
// replica's crash.
func TestShardLeaderCrashMid2PC(t *testing.T) {
	const S = 2
	d, r := newTestDeployment(t, New, transport.KindRDMA, S)
	statuses := map[string]string{}

	// Warm-up: prove the deployment commits cross-shard before faults.
	invokeTxn(d, r, statuses, "warm", []kvstore.TxnSub{
		{Code: kvstore.OpPut, Key: keyOn(0, S, "w"), Value: "1"},
		{Code: kvstore.OpPut, Key: keyOn(1, S, "w.b"), Value: "2"},
	})
	d.Loop.Run()
	if statuses["warm"] != kvstore.TxnCommitted {
		t.Fatalf("warm-up txn status = %q", statuses["warm"])
	}

	// Crash shard 0's current leader (view 0 → replica 0) just after a
	// wave of cross-shard transactions starts, so the fault lands in
	// the middle of their 2PC exchanges.
	const wave = 5
	sched := chaos.Apply(d.Clusters[0], chaos.NewScenario("s0-leader-crash").
		Crash(d.Loop.Now()+50*sim.Microsecond, 0))
	for i := 0; i < wave; i++ {
		invokeTxn(d, r, statuses, fmt.Sprintf("t%d", i), []kvstore.TxnSub{
			{Code: kvstore.OpPut, Key: keyOn(0, S, fmt.Sprintf("c%d.", i)), Value: "1"},
			{Code: kvstore.OpPut, Key: keyOn(1, S, fmt.Sprintf("d%d.", i)), Value: "2"},
		})
	}
	d.Loop.RunUntil(d.Loop.Now() + time2PCOutage(d))

	// While shard 0 is leaderless (its view change has not fired yet),
	// shard 1 keeps committing single-key writes.
	okCount := 0
	d.Loop.Post(func() {
		for i := 0; i < 10; i++ {
			r.InvokeOp(kvstore.EncodeOp(kvstore.OpPut, keyOn(1, S, fmt.Sprintf("live%d.", i)), "v"), func(res []byte) {
				if string(res) == "OK" {
					okCount++
				}
			})
		}
	})
	d.Loop.RunUntil(d.Loop.Now() + d.Config.PBFT.ViewTimeout/2)
	if okCount != 10 {
		t.Fatalf("shard 1 committed %d of 10 writes during shard 0's outage", okCount)
	}

	// Drain: shard 0's view change elects a new leader and every
	// in-flight transaction resolves — committed, since their key sets
	// are disjoint.
	d.Loop.Run()
	for i := 0; i < wave; i++ {
		if st := statuses[fmt.Sprintf("t%d", i)]; st != kvstore.TxnCommitted {
			t.Errorf("txn t%d status = %q after recovery", i, st)
		}
	}
	if err := sched.Err(); err != nil {
		t.Fatalf("chaos schedule: %v", err)
	}
	if err := r.Errs(); err != nil {
		t.Fatalf("router errors: %v", err)
	}
	if r.Outstanding() != 0 {
		t.Fatalf("router still has %d outstanding ops", r.Outstanding())
	}
}

// time2PCOutage is how long the crash wave runs before the liveness
// probe: long enough for the crash event to fire, well short of the
// view timeout.
func time2PCOutage(d *Deployment) sim.Time { return d.Config.PBFT.ViewTimeout / 4 }

// TestShardBackupRecoveryViaPartialTransfer crashes and restarts a
// backup of one shard group under single-key traffic: the restarted
// replica must rejoin through the Merkle partial state transfer
// (kvstore implements pbft.PartitionedState, so shard groups inherit
// the subtree negotiation unchanged), converge on the shard's digest,
// and then participate in a cross-shard transaction — proving the
// transferred header restored the 2PC staging machinery too.
func TestShardBackupRecoveryViaPartialTransfer(t *testing.T) {
	const S = 2
	d, r := newTestDeployment(t, New, transport.KindRDMA, S)

	c0 := d.Clusters[0]
	c0.Crash(3)
	okCount := 0
	d.Loop.Post(func() {
		for i := 0; i < 20; i++ {
			r.InvokeOp(kvstore.EncodeOp(kvstore.OpPut, keyOn(0, S, fmt.Sprintf("rec%d.", i)), "v"), func(res []byte) {
				if string(res) == "OK" {
					okCount++
				}
			})
		}
	})
	d.Loop.Run()
	if okCount != 20 {
		t.Fatalf("shard 0 committed %d of 20 writes with its backup down", okCount)
	}
	if c0.Replicas[0].Stable() < 8 {
		t.Fatalf("shard 0 stable = %d, want >= 8 before restart", c0.Replicas[0].Stable())
	}
	if err := c0.Restart(3); err != nil {
		t.Fatal(err)
	}
	d.Loop.Run() // state transfer completes
	if c0.Replicas[3].StateTransfers() == 0 {
		t.Fatal("restarted shard replica completed no state transfer")
	}
	if c0.Replicas[3].StateRejects() != 0 {
		t.Fatalf("%d transfer rejections on a clean network", c0.Replicas[3].StateRejects())
	}

	// The recovered replica executes a cross-shard transaction with the
	// rest of its group.
	statuses := map[string]string{}
	invokeTxn(d, r, statuses, "post", []kvstore.TxnSub{
		{Code: kvstore.OpPut, Key: keyOn(0, S, "post.a"), Value: "1"},
		{Code: kvstore.OpPut, Key: keyOn(1, S, "post.b"), Value: "2"},
	})
	d.Loop.Run()
	if statuses["post"] != kvstore.TxnCommitted {
		t.Fatalf("post-recovery txn status = %q", statuses["post"])
	}
	d.Loop.RunUntil(d.Loop.Now() + 200*sim.Millisecond)
	if got, want := c0.Replicas[3].Executed(), c0.Replicas[0].Executed(); got != want {
		t.Fatalf("recovered replica executed %d, group %d", got, want)
	}
	d0 := store(d, 0, 0).Snapshot()
	for i := 1; i < 4; i++ {
		if store(d, 0, i).Snapshot() != d0 {
			t.Fatalf("shard 0 replica %d diverged after recovery", i)
		}
	}
	if err := r.Errs(); err != nil {
		t.Fatalf("router errors: %v", err)
	}
}
