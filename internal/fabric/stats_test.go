package fabric

import (
	"reflect"
	"testing"

	"rubin/internal/raceflag"
)

// TestStatsEnumerateInRegistrationOrder pins the table's shape: entries
// come back in the order layers registered them, a name registered twice is
// two entries, and a gauge is read at enumeration time.
func TestStatsEnumerateInRegistrationOrder(t *testing.T) {
	_, nw := testNet()
	n := nw.AddNode("a")
	level := 3.0
	first := n.Counter("x.events")
	n.Gauge("x_level", StatLevel, func() float64 { return level })
	peak := n.Peak("x.peak")
	second := n.Counter("x.events")
	*first, *second, *peak, level = 2, 5, 9, 4

	type entry struct {
		name  string
		kind  StatKind
		value float64
	}
	var got []entry
	n.EachStat(func(name string, kind StatKind, v float64) { got = append(got, entry{name, kind, v}) })
	want := []entry{
		{"x.events", StatCounter, 2},
		{"x_level", StatLevel, 4},
		{"x.peak", StatPeak, 9},
		{"x.events", StatCounter, 5},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EachStat = %v, want %v", got, want)
	}
}

// TestFoldSumsCountersAndMaxesPeaks: every registration owns its cell — two
// replicas on one node, a restarted replica's successor — and a fold reads
// them as one value: counters add up, peaks and levels take the maximum,
// within a node and across nodes.
func TestFoldSumsCountersAndMaxesPeaks(t *testing.T) {
	_, nw := testNet()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	c1, c2, c3 := a.Counter("x.events"), a.Counter("x.events"), b.Counter("x.events")
	p1, p2, p3 := a.Peak("x.peak"), a.Peak("x.peak"), b.Peak("x.peak")
	b.Gauge("x_level", StatLevel, func() float64 { return 7 })
	a.Gauge("x_level", StatLevel, func() float64 { return 1 })
	*c1, *c2, *c3 = 1, 20, 300
	*p1, *p2, *p3 = 40, 6, 50

	if got := Fold(a); got["x.events"] != 21 || got["x.peak"] != 40 || got["x_level"] != 1 {
		t.Errorf("Fold(a) = %v, want events 21, peak 40, level 1", got)
	}
	if got := Fold(a, b); got["x.events"] != 321 || got["x.peak"] != 50 || got["x_level"] != 7 {
		t.Errorf("Fold(a, b) = %v, want events 321, peak 50, level 7", got)
	}
	if got := Fold(a, b)["never.registered"]; got != 0 {
		t.Errorf("an unregistered name folds to %v, want 0", got)
	}
}

// TestFoldSeesOnlyTheNodesItIsGiven is the sharded deployment's case: S
// clusters co-host one network, and shard 0's send faults must not count
// shard 1's. The network itself enumerates every node, in creation order.
func TestFoldSeesOnlyTheNodesItIsGiven(t *testing.T) {
	_, nw := testNet()
	var shard0, shard1 []*Node
	for _, name := range []string{"s0r0", "s0r1"} {
		shard0 = append(shard0, nw.AddNode(name))
	}
	for _, name := range []string{"s1r0", "s1r1"} {
		shard1 = append(shard1, nw.AddNode(name))
	}
	*shard0[1].Counter("pbft.send_faults") = 2
	*shard1[0].Counter("pbft.send_faults") = 5

	if got := Fold(shard0...)["pbft.send_faults"]; got != 2 {
		t.Errorf("shard 0 folds to %v, want its own 2", got)
	}
	if got := Fold(shard1...)["pbft.send_faults"]; got != 5 {
		t.Errorf("shard 1 folds to %v, want its own 5", got)
	}
	if got := Fold(nw.Nodes()...)["pbft.send_faults"]; got != 7 {
		t.Errorf("the whole network folds to %v, want 7", got)
	}
	if all := nw.Nodes(); !reflect.DeepEqual(all, append(shard0, shard1...)) {
		t.Errorf("Nodes() is not in creation order: %v", all)
	}
}

// TestStatBumpAllocatesNothing: the hot path is an increment through the
// pointer the layer was handed at registration.
func TestStatBumpAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	_, nw := testNet()
	n := nw.AddNode("a")
	events, peak := n.Counter("x.events"), n.Peak("x.peak")
	depth := uint64(0)
	if got := testing.AllocsPerRun(1000, func() {
		*events++
		if depth++; depth > *peak {
			*peak = depth
		}
	}); got != 0 {
		t.Errorf("a counter and a peak bump allocate %v, want 0", got)
	}
	if *events == 0 || *peak != depth {
		t.Errorf("bumps were lost: events %d, peak %d of %d", *events, *peak, depth)
	}
}
