package shard

import (
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// TestRouterReadFastPath proves single-key Gets ride the owning shard's
// read fast path — on routers that existed before the enable call and
// on routers added after it — while scans and transactions stay on the
// ordered path (their consistency spans shards or lock state).
func TestRouterReadFastPath(t *testing.T) {
	const S = 2
	d, r1 := newTestDeployment(t, transport.KindRDMA, S)
	d.EnableReadFastPath(2 * sim.Millisecond)
	r2, err := d.AddRouter()
	if err != nil {
		t.Fatalf("AddRouter after enable: %v", err)
	}
	k0 := keyOn(0, S, "a")
	k1 := keyOn(1, S, "b")
	var paths []bool
	for _, r := range []*Router{r1, r2} {
		r.SetReadPathHook(func(_ string, fast bool) { paths = append(paths, fast) })
	}
	got := map[string]string{}
	d.Loop.Post(func() {
		r1.InvokeOp(kvstore.EncodeOp(kvstore.OpPut, k0, "v0"), func([]byte) {
			r1.InvokeOp(kvstore.EncodeOp(kvstore.OpGet, k0, ""), func(res []byte) {
				got[k0] = string(res)
			})
		})
		r2.InvokeOp(kvstore.EncodeOp(kvstore.OpPut, k1, "v1"), func([]byte) {
			r2.InvokeOp(kvstore.EncodeOp(kvstore.OpGet, k1, ""), func(res []byte) {
				got[k1] = string(res)
			})
		})
	})
	d.Loop.Run()
	if got[k0] != "v0" || got[k1] != "v1" {
		t.Fatalf("fast reads returned %v", got)
	}
	if n := fabric.Fold(r1.Mesh.Node(), r2.Mesh.Node())["pbft.fast_reads"]; n != 2 {
		t.Fatalf("fast reads = %v, want 2 (one per router)", n)
	}
	if n := fabric.Fold(r1.Mesh.Node(), r2.Mesh.Node())["pbft.fast_read_fallbacks"]; n != 0 {
		t.Fatalf("fallbacks = %v on a healthy deployment", n)
	}
	if len(paths) != 2 || !paths[0] || !paths[1] {
		t.Fatalf("path hooks = %v, want two fast reports", paths)
	}

	// Scans and read-only transactions must not touch the fast path:
	// a scan's snapshot spans shards, a transaction's reads interact
	// with 2PC lock state.
	var scanRes, txnRes string
	d.Loop.Post(func() {
		r1.InvokeOp(kvstore.EncodeOp(kvstore.OpScan, "", ""), func(res []byte) {
			scanRes = string(res)
		})
		r1.InvokeOp(kvstore.EncodeTxn("t1", []kvstore.TxnSub{{Code: kvstore.OpGet, Key: k0}}), func(res []byte) {
			txnRes = string(res)
		})
	})
	d.Loop.Run()
	if scanRes == "" {
		t.Fatal("scan returned nothing")
	}
	if txnRes == "" {
		t.Fatal("transaction returned nothing")
	}
	if n := fabric.Fold(r1.Mesh.Node(), r2.Mesh.Node())["pbft.fast_reads"]; n != 2 {
		t.Fatalf("fast reads = %v after scan+txn, want still 2 (both must stay ordered)", n)
	}
}
