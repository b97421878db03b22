package reptor

import (
	"fmt"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/obs"
	"rubin/internal/transport"
)

// TestTracerReachesWhatJoinsLater attaches a tracer to a started COP
// group: every host, and so every instance replica on it, reports it
// without having been handed it, a client added afterwards is traced, and
// a short run leaves the request attribution in the summary.
func TestTracerReachesWhatJoinsLater(t *testing.T) {
	g := newTestGroup(t, transport.KindRDMA, DefaultConfig())
	tr := obs.New(obs.Options{Spans: true})
	tr.BeginRun("cop")
	g.SetTracer(tr)
	for i := range g.Meshes {
		if g.Node(i).Network().Tracer() != tr {
			t.Fatalf("host %d does not report the world's tracer", i)
		}
	}
	cl, err := g.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	if cl.Mesh.Node().Network().Tracer() != tr {
		t.Fatal("the client added after SetTracer is not in the traced world")
	}

	const n = 24
	g.Loop.Post(func() {
		for i := 0; i < n; i++ {
			t0 := g.Loop.Now()
			var id string
			id = cl.InvokeOp(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("k%02d", i), "v"), func([]byte) {
				tr.Mark(obs.Return, id, g.Loop.Now())
				tr.Finish(id, true)
			})
			tr.Mark(obs.Arrive, id, t0)
			tr.Mark(obs.Invoke, id, t0)
		}
	})
	g.Loop.Run()
	s := tr.Summary()
	if s.Count != n || s.Order <= 0 {
		t.Fatalf("traced run left %+v, want %d requests with replica-side milestones", s, n)
	}
}
