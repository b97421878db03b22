package pbft

import (
	"bytes"
	"fmt"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// viewChangeWire runs one leader-crash scenario and returns every
// VIEW-CHANGE and NEW-VIEW payload in the order replicas received them.
// COMMIT is muted on every replica until after the crash, so all six
// single-request slots are prepared but unexecuted when the request
// timers fire: every VIEW-CHANGE carries six proofs and the NEW-VIEW
// re-proposes six slots — enough entries that map-order iteration
// anywhere on the path would scramble them.
func viewChangeWire(t *testing.T) [][]byte {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BatchSize = 1
	c := newTestCluster(t, transport.KindTCP, cfg)
	cl, err := c.AddClient()
	if err != nil {
		t.Fatal(err)
	}
	var wire [][]byte
	tapInbound(c, func(_ int, payload []byte) {
		if mt := MsgType(payload[0]); mt == MsgViewChange || mt == MsgNewView {
			wire = append(wire, bytes.Clone(payload))
		}
	})
	setMute := func(mute bool) {
		for _, rep := range c.Replicas {
			rep.SetFaults(Faults{Mute: map[MsgType]bool{MsgCommit: mute}})
		}
	}
	setMute(true)
	const requests = 6
	done := 0
	base := c.Loop.Now()
	c.Loop.Post(func() {
		for k := 0; k < requests; k++ {
			cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("vc%d", k), "v"), func([]byte) { done++ })
		}
	})
	c.Loop.At(base+10*sim.Millisecond, func() { c.Crash(0) })
	c.Loop.At(base+20*sim.Millisecond, func() { setMute(false) })
	c.Loop.Run()
	if done != requests {
		t.Fatalf("committed %d of %d requests across the view change", done, requests)
	}
	proofs := 0
	for _, payload := range wire {
		if m, err := Decode(payload); err != nil {
			t.Fatalf("captured payload does not decode: %v", err)
		} else if vc, ok := m.(ViewChange); ok && len(vc.Prepared) > proofs {
			proofs = len(vc.Prepared)
		}
	}
	if proofs < 2 {
		t.Fatalf("largest VIEW-CHANGE carried %d prepared proofs; the scenario needs >= 2 to expose ordering", proofs)
	}
	return wire
}

// TestViewChangeBytesDeterministic asserts VIEW-CHANGE and NEW-VIEW bytes
// (which are MAC'd) are a function of the seed alone. Go randomises map
// iteration per range statement, so building the proof list by ranging
// over the log makes this fail within a few repetitions.
func TestViewChangeBytesDeterministic(t *testing.T) {
	want := viewChangeWire(t)
	for run := 1; run < 20; run++ {
		got := viewChangeWire(t)
		if len(got) != len(want) {
			t.Fatalf("run %d: %d view-change payloads, first run had %d", run, len(got), len(want))
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("run %d: payload %d (%s) differs from the first run", run, i, MsgType(want[i][0]))
			}
		}
	}
}

// TestNewLeaderCountsItsOwnViewChange: the new view's leader that joins a
// view change on the F+1st demand has, with its own, 2F+1 — and installs
// the view on the spot rather than waiting for a demand that a crashed
// replica will never send.
func TestNewLeaderCountsItsOwnViewChange(t *testing.T) {
	r := bareReplica(t, 1, DefaultConfig())
	r.handleViewChange(ViewChange{NewView: 1, Replica: 2})
	if r.viewChanging || r.view != 0 {
		t.Fatalf("one demand of F+1: viewChanging=%v view=%d, want the replica unmoved", r.viewChanging, r.view)
	}
	r.handleViewChange(ViewChange{NewView: 1, Replica: 3})
	if r.view != 1 || r.viewChanging {
		t.Fatalf("F+1 demands plus its own: view=%d viewChanging=%v, want view 1 installed", r.view, r.viewChanging)
	}
}
