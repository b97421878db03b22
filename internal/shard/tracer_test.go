package shard

import (
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/obs"
	"rubin/internal/transport"
)

// TestTracerReachesWhatJoinsLater attaches a tracer to a started
// deployment of either placement through its one entry point: every host,
// and so every group's replica on it, reports it without having been
// handed it. Then a replica of one group restarts and a router joins:
// both are traced because they are in the world. One cross-group
// transaction through the late router leaves its request attribution and
// both 2PC phase waits in the summary.
func TestTracerReachesWhatJoinsLater(t *testing.T) {
	const S = 2
	for _, pl := range placements {
		t.Run(pl.name, func(t *testing.T) {
			d, _ := newTestDeployment(t, pl.build, transport.KindRDMA, S)
			tr := obs.New(obs.Options{Spans: true})
			tr.BeginRun(pl.name)
			d.SetTracer(tr)
			for _, c := range d.Clusters {
				for i := range c.Meshes {
					if c.Node(i).Network().Tracer() != tr {
						t.Fatalf("host %s does not report the world's tracer", c.Node(i).Name())
					}
				}
			}

			c1 := d.Clusters[1]
			c1.Crash(3)
			if err := c1.Restart(3); err != nil {
				t.Fatal(err)
			}
			if c1.Node(3).Network().Tracer() != tr {
				t.Fatal("the replica Restart installed is not in the traced world")
			}
			r, err := d.AddRouter()
			if err != nil {
				t.Fatal(err)
			}
			if r.dep.Network.Tracer() != tr || r.Mesh.Node().Network().Tracer() != tr {
				t.Fatal("the router added after SetTracer does not report the world's tracer")
			}

			var status string
			d.Loop.Post(func() {
				t0 := d.Loop.Now()
				var id string
				id = r.InvokeOp(kvstore.EncodeTxn("t1", []kvstore.TxnSub{
					{Code: kvstore.OpPut, Key: keyOn(0, S, "a"), Value: "1"},
					{Code: kvstore.OpPut, Key: keyOn(1, S, "b"), Value: "2"},
				}), func(res []byte) {
					status, _, _ = kvstore.DecodeTxnResult(res)
					tr.Mark(obs.Return, id, d.Loop.Now())
					tr.Finish(id, true)
				})
				tr.Mark(obs.Arrive, id, t0)
				tr.Mark(obs.Invoke, id, t0)
			})
			d.Loop.Run()
			if status != kvstore.TxnCommitted {
				t.Fatalf("cross-group txn status = %q", status)
			}
			s := tr.Summary()
			if s.Count != 1 || s.Order <= 0 {
				t.Fatalf("traced run left %+v, want one request with replica-side milestones", s)
			}
			if s.TxnCount != 1 || s.PrepareWait <= 0 || s.CommitWait <= 0 {
				t.Fatalf("the router recorded no 2PC phase waits: %+v", s)
			}
		})
	}
}
