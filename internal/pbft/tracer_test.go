package pbft

import (
	"fmt"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/obs"
	"rubin/internal/transport"
)

// TestTracerReachesWhatJoinsLater attaches a tracer to a started cluster
// and then changes the cluster: a replica is replaced by Restart, a client
// is added. Neither is told about the tracer — it belongs to the world
// they are created in — and a short run through the late client is
// attributed end to end, replica-side milestones included.
func TestTracerReachesWhatJoinsLater(t *testing.T) {
	c := newTestCluster(t, transport.KindRDMA, DefaultConfig(), 0)
	tr := obs.New(obs.Options{Spans: true})
	tr.BeginRun("late joiners")
	c.SetTracer(tr)

	old := c.Replicas[3]
	c.Crash(3)
	must(t, c.Restart(3))
	cl, err := c.AddClient()
	must(t, err)
	if c.Replicas[3] == old || c.Replicas[3].tracer() != tr {
		t.Fatal("the replica Restart installed does not report the world's tracer")
	}
	if late := c.Network.Node("client100"); late == nil || late.Network().Tracer() != tr {
		t.Fatal("the client added after SetTracer is not in the traced world")
	}

	const n = 8
	c.Loop.Post(func() {
		for i := 0; i < n; i++ {
			t0 := c.Loop.Now()
			var id string
			id = cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("k%d", i), "v"), func([]byte) {
				tr.Mark(obs.Return, id, c.Loop.Now())
				tr.Finish(id, true)
			})
			tr.Mark(obs.Arrive, id, t0)
			tr.Mark(obs.Invoke, id, t0)
		}
	})
	c.Loop.Run()
	s := tr.Summary()
	if s.Count != n || s.Total <= 0 {
		t.Fatalf("traced run left %+v, want %d attributed requests", s, n)
	}
	// Only replicas mark leader-recv and propose: a non-zero order phase
	// is their marks arriving.
	if s.Order <= 0 {
		t.Fatalf("replica-side milestones missing from the attribution: %+v", s)
	}

	c.SetTracer(nil)
	if c.Replicas[0].tracer() != nil || c.Replicas[3].tracer() != nil {
		t.Fatal("a nil tracer did not detach")
	}
}
