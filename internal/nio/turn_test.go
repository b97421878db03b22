package nio

import (
	"reflect"
	"testing"

	"rubin/internal/raceflag"
)

// stubChannel is a channel whose readiness the test sets by hand.
type stubChannel struct {
	name  string
	key   *SelectionKey
	ready InterestOps
}

func (c *stubChannel) bind(k *SelectionKey)   { c.key = k }
func (c *stubChannel) readiness() InterestOps { return c.ready }

// turnRig is a selector over three stub channels that records the keys of
// every turn by name and lets the test script each turn.
type turnRig struct {
	*rig
	sel     *Selector
	a, b, c *stubChannel
	turns   [][]string
	script  []func() // script[i] runs inside turn i, before readiness is reset
	sticky  map[*stubChannel]bool
}

func newTurnRig(t *testing.T) *turnRig {
	tr := &turnRig{rig: newRig(t), sticky: map[*stubChannel]bool{}}
	tr.sel = NewSelector(tr.sa)
	tr.a, tr.b, tr.c = &stubChannel{name: "a"}, &stubChannel{name: "b"}, &stubChannel{name: "c"}
	for _, ch := range []*stubChannel{tr.a, tr.b, tr.c} {
		tr.sel.Register(ch, OpRead, ch)
	}
	tr.sel.Select(func(keys []*SelectionKey) {
		var names []string
		for _, k := range keys {
			names = append(names, k.Attachment().(*stubChannel).name)
		}
		turn := len(tr.turns)
		tr.turns = append(tr.turns, names)
		if turn < len(tr.script) && tr.script[turn] != nil {
			tr.script[turn]()
		}
		for _, k := range keys {
			if !tr.sticky[k.Attachment().(*stubChannel)] {
				k.ResetReady(OpRead)
			}
		}
	})
	return tr
}

// What a handler makes ready during its turn is the next turn's, and a turn
// lists its keys in registration order whatever order they became ready in.
func TestKeyMadeReadyDuringTurnWaitsForNextTurn(t *testing.T) {
	tr := newTurnRig(t)
	tr.script = []func(){func() {
		tr.b.key.signal(OpRead)
		tr.a.key.signal(OpRead)
	}}
	tr.loop.Post(func() { tr.c.key.signal(OpRead) })
	tr.loop.Run()
	if want := [][]string{{"c"}, {"a", "b"}}; !reflect.DeepEqual(tr.turns, want) {
		t.Fatalf("turns = %v, want %v", tr.turns, want)
	}
	if tr.sel.queued != 0 || tr.sel.wakeups != 2 {
		t.Fatalf("idle selector: %d keys queued after %d wakeups", tr.sel.queued, tr.sel.wakeups)
	}
}

// A key cancelled during a turn it is part of is not re-queued though its
// readiness was never consumed, and one cancelled while waiting for the next
// turn is not delivered; the key left ready and alive is.
func TestKeyCancelledDuringTurnIsDropped(t *testing.T) {
	tr := newTurnRig(t)
	tr.sticky[tr.a], tr.sticky[tr.b] = true, true
	tr.script = []func(){
		func() {
			tr.c.key.signal(OpRead) // queued for turn 1 ...
			tr.c.key.Cancel()       // ... and gone before it
			tr.b.key.Cancel()       // in this turn, still ready
		},
		func() { tr.sticky[tr.a] = false },
	}
	tr.loop.Post(func() {
		tr.a.key.signal(OpRead)
		tr.b.key.signal(OpRead)
	})
	tr.loop.Run()
	if want := [][]string{{"a", "b"}, {"a"}}; !reflect.DeepEqual(tr.turns, want) {
		t.Fatalf("turns = %v, want %v", tr.turns, want)
	}
	if tr.sel.queued != 0 {
		t.Fatalf("idle selector: %d keys queued", tr.sel.queued)
	}
	tr.b.key.signal(OpRead)
	tr.c.key.signal(OpRead)
	tr.loop.Run()
	if len(tr.turns) != 2 {
		t.Fatalf("a cancelled key was delivered: turns = %v", tr.turns)
	}
}

// The ready set is a flag per key and the turn's key list one reused slice:
// a select turn allocates nothing.
func TestSelectTurnAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the selector's")
	}
	tr := newTurnRig(t)
	turn := func() {
		tr.a.key.signal(OpRead)
		tr.c.key.signal(OpRead)
		tr.loop.Run()
	}
	// Replace the rig's recording handler with one that only consumes.
	tr.sel.Select(func(keys []*SelectionKey) {
		for _, k := range keys {
			k.ResetReady(OpRead)
		}
	})
	turn() // warm-up: the turn slice and the loop's event exist from here on
	if allocs := testing.AllocsPerRun(200, turn); allocs != 0 {
		t.Errorf("one select turn of two keys: %v allocs, want 0", allocs)
	}
	if tr.sel.wakeups != 202 {
		t.Fatalf("%d wakeups, want 202", tr.sel.wakeups)
	}
}
