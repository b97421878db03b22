package fabric

import (
	"testing"
	"testing/quick"

	"rubin/internal/model"
	"rubin/internal/raceflag"
	"rubin/internal/sim"
)

func testNet() (*sim.Loop, *Network) {
	loop := sim.NewLoop(1)
	return loop, New(loop, model.Default())
}

func TestSendDeliversInOrderWithDelay(t *testing.T) {
	loop, nw := testNet()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	nw.Connect(a, b)

	var got []int
	var at []sim.Time
	b.Register(ProtoTCP, func(from *Node, p any, wb int) {
		got = append(got, p.(int))
		at = append(at, loop.Now())
	})
	loop.At(0, func() {
		for i := 0; i < 5; i++ {
			if err := nw.Send(a, b, ProtoTCP, i, 1500); err != nil {
				t.Errorf("Send: %v", err)
			}
		}
	})
	loop.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d frames, want 5", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("out-of-order delivery: %v", got)
		}
	}
	// First frame: serialize(1500+58) + 3µs propagation.
	min := model.Default().Link.Propagation
	if at[0] <= min {
		t.Fatalf("first delivery at %v, want > propagation %v", at[0], min)
	}
	// Frames serialize back-to-back, so deliveries are strictly increasing.
	for i := 1; i < len(at); i++ {
		if at[i] <= at[i-1] {
			t.Fatalf("deliveries not strictly ordered in time: %v", at)
		}
	}
}

func TestSendWithoutLinkFails(t *testing.T) {
	_, nw := testNet()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	b.Register(ProtoTCP, func(*Node, any, int) {})
	if err := nw.Send(a, b, ProtoTCP, "x", 10); err == nil {
		t.Fatal("Send without a link should fail")
	}
}

func TestSendWithoutHandlerFails(t *testing.T) {
	_, nw := testNet()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	nw.Connect(a, b)
	if err := nw.Send(a, b, ProtoTCP, "x", 10); err == nil {
		t.Fatal("Send without a handler should fail")
	}
}

func TestConnectIsIdempotent(t *testing.T) {
	_, nw := testNet()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	l1 := nw.Connect(a, b)
	l2 := nw.Connect(b, a)
	if l1 != l2 {
		t.Fatal("Connect(a,b) and Connect(b,a) should return the same link")
	}
	if nw.Link(a, b) != l1 || nw.Link(b, a) != l1 {
		t.Fatal("Link lookup should be direction-agnostic")
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	_, nw := testNet()
	nw.AddNode("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for duplicate node")
		}
	}()
	nw.AddNode("a")
}

func TestSelfLinkPanics(t *testing.T) {
	_, nw := testNet()
	a := nw.AddNode("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for self link")
		}
	}()
	nw.Connect(a, a)
}

func TestDropFunc(t *testing.T) {
	loop, nw := testNet()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	link := nw.Connect(a, b)
	delivered := 0
	b.Register(ProtoTCP, func(*Node, any, int) { delivered++ })
	n := 0
	link.SetDrop(func(from, to *Node, p any, wb int) bool {
		n++
		return n%2 == 0 // drop every second frame
	})
	loop.At(0, func() {
		for i := 0; i < 10; i++ {
			_ = nw.Send(a, b, ProtoTCP, i, 100)
		}
	})
	loop.Run()
	if delivered != 5 {
		t.Fatalf("delivered %d, want 5", delivered)
	}
	if link.Dropped() != 5 {
		t.Fatalf("Dropped() = %d, want 5", link.Dropped())
	}
	if link.Frames() != 5 {
		t.Fatalf("Frames() = %d, want 5", link.Frames())
	}
}

func TestDirectionsAreIndependent(t *testing.T) {
	loop, nw := testNet()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	nw.Connect(a, b)
	var aAt, bAt sim.Time
	a.Register(ProtoTCP, func(*Node, any, int) { aAt = loop.Now() })
	b.Register(ProtoTCP, func(*Node, any, int) { bAt = loop.Now() })
	loop.At(0, func() {
		_ = nw.Send(a, b, ProtoTCP, "ab", 100000)
		_ = nw.Send(b, a, ProtoTCP, "ba", 100000)
	})
	loop.Run()
	if aAt == 0 || bAt == 0 {
		t.Fatal("both directions should deliver")
	}
	if aAt != bAt {
		t.Fatalf("full duplex broken: a at %v, b at %v", aAt, bAt)
	}
}

func TestProtocolDemux(t *testing.T) {
	loop, nw := testNet()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	nw.Connect(a, b)
	var tcp, rdma int
	b.Register(ProtoTCP, func(*Node, any, int) { tcp++ })
	b.Register(ProtoRDMA, func(*Node, any, int) { rdma++ })
	loop.At(0, func() {
		_ = nw.Send(a, b, ProtoTCP, 1, 10)
		_ = nw.Send(a, b, ProtoRDMA, 2, 10)
		_ = nw.Send(a, b, ProtoRDMA, 3, 10)
	})
	loop.Run()
	if tcp != 1 || rdma != 2 {
		t.Fatalf("demux wrong: tcp=%d rdma=%d", tcp, rdma)
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoRDMA.String() != "rdma" {
		t.Fatal("protocol names wrong")
	}
	if Protocol(9).String() != "proto(9)" {
		t.Fatal("unknown protocol formatting wrong")
	}
}

func TestLinkDownHoldsAndReleasesInOrder(t *testing.T) {
	loop, nw := testNet()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	link := nw.Connect(a, b)
	var got []int
	b.Register(ProtoTCP, func(from *Node, p any, wb int) { got = append(got, p.(int)) })

	link.SetDown(true)
	loop.At(0, func() {
		for i := 0; i < 4; i++ {
			_ = nw.Send(a, b, ProtoTCP, i, 100)
		}
	})
	loop.Run()
	if len(got) != 0 {
		t.Fatalf("down link delivered %v", got)
	}
	if link.Held() != 4 {
		t.Fatalf("Held() = %d, want 4", link.Held())
	}
	// Heal at a later virtual time: the backlog drains in order.
	loop.At(loop.Now()+sim.Millisecond, func() { link.SetDown(false) })
	loop.Run()
	if len(got) != 4 || link.Held() != 0 {
		t.Fatalf("after heal: got %v, held %d", got, link.Held())
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("heal reordered frames: %v", got)
		}
	}
}

func TestLinkLossIsDeterministic(t *testing.T) {
	run := func() (delivered int, dropped uint64) {
		loop, nw := testNet()
		a, b := nw.AddNode("a"), nw.AddNode("b")
		link := nw.Connect(a, b)
		b.Register(ProtoTCP, func(*Node, any, int) { delivered++ })
		link.SetFaults(LinkFaults{LossRate: 0.3})
		loop.At(0, func() {
			for i := 0; i < 200; i++ {
				_ = nw.Send(a, b, ProtoTCP, i, 100)
			}
		})
		loop.Run()
		return delivered, link.Dropped()
	}
	d1, x1 := run()
	d2, x2 := run()
	if d1 != d2 || x1 != x2 {
		t.Fatalf("loss nondeterministic: (%d,%d) vs (%d,%d)", d1, x1, d2, x2)
	}
	if x1 == 0 || d1 == 0 {
		t.Fatalf("loss rate 0.3 dropped %d and delivered %d of 200", x1, d1)
	}
}

func TestLinkExtraLatencyDelaysDelivery(t *testing.T) {
	arrival := func(extra sim.Time) sim.Time {
		loop, nw := testNet()
		a, b := nw.AddNode("a"), nw.AddNode("b")
		link := nw.Connect(a, b)
		var at sim.Time
		b.Register(ProtoTCP, func(*Node, any, int) { at = loop.Now() })
		link.SetFaults(LinkFaults{ExtraLatency: extra})
		loop.At(0, func() { _ = nw.Send(a, b, ProtoTCP, nil, 100) })
		loop.Run()
		return at
	}
	base := arrival(0)
	slow := arrival(5 * sim.Millisecond)
	if slow != base+5*sim.Millisecond {
		t.Fatalf("extra latency: base %v, degraded %v", base, slow)
	}
}

func TestLinkJitterPreservesFIFO(t *testing.T) {
	loop, nw := testNet()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	link := nw.Connect(a, b)
	var got []int
	var at []sim.Time
	b.Register(ProtoTCP, func(from *Node, p any, wb int) {
		got = append(got, p.(int))
		at = append(at, loop.Now())
	})
	link.SetFaults(LinkFaults{Jitter: 2 * sim.Millisecond})
	loop.At(0, func() {
		for i := 0; i < 50; i++ {
			_ = nw.Send(a, b, ProtoTCP, i, 100)
		}
	})
	loop.Run()
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50 under jitter", len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("jitter reordered frames at %d: %v", i, got[:i+1])
		}
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatalf("arrival times regressed: %v then %v", at[i-1], at[i])
		}
	}
}

func TestSetFaultsPreservedAcrossSetDown(t *testing.T) {
	_, nw := testNet()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	link := nw.Connect(a, b)
	link.SetFaults(LinkFaults{ExtraLatency: sim.Millisecond, LossRate: 0.1})
	link.SetDown(true)
	link.SetDown(false)
	f := link.faults
	if f.ExtraLatency != sim.Millisecond || f.LossRate != 0.1 || f.Down {
		t.Fatalf("SetDown clobbered fault state: %+v", f)
	}
}

// Property: bigger frames never arrive earlier than smaller ones sent at the
// same instant on an idle link (serialization is monotone in size).
func TestPropertyLargerFramesArriveNoEarlier(t *testing.T) {
	prop := func(s1, s2 uint16) bool {
		small, big := int(s1)%60000, int(s2)%60000
		if small > big {
			small, big = big, small
		}
		arrival := func(size int) sim.Time {
			loop := sim.NewLoop(1)
			nw := New(loop, model.Default())
			a, b := nw.AddNode("a"), nw.AddNode("b")
			nw.Connect(a, b)
			var at sim.Time
			b.Register(ProtoTCP, func(*Node, any, int) { at = loop.Now() })
			loop.At(0, func() { _ = nw.Send(a, b, ProtoTCP, nil, size) })
			loop.Run()
			return at
		}
		return arrival(small) <= arrival(big)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Frame records are recycled, and released before the destination handler
// runs — so a handler that transmits from inside delivery (every ack does)
// is handed the very record its own frame arrived in. The tests below pin
// that no frame is ever seen twice or with another frame's fields.

// tagged is a payload that carries its own expected wire size.
type tagged struct{ id, wire int }

func TestHandlerTransmittingInsideDeliverySeesItsOwnFrame(t *testing.T) {
	loop, nw := testNet()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	nw.Connect(a, b)
	var atB, atA []tagged
	b.Register(ProtoTCP, func(from *Node, p any, wb int) {
		in := p.(*tagged)
		// Reply first: with one record on the free list the reply takes
		// the record this frame has just vacated.
		if err := nw.Send(b, from, ProtoRDMA, &tagged{id: -in.id, wire: 60}, 60); err != nil {
			t.Errorf("reply: %v", err)
		}
		if from != a || wb != in.wire {
			t.Errorf("frame %d delivered as from=%s wire=%d after its handler transmitted", in.id, from.Name(), wb)
		}
		atB = append(atB, *in)
	})
	a.Register(ProtoRDMA, func(from *Node, p any, wb int) {
		in := p.(*tagged)
		if from != b || wb != in.wire {
			t.Errorf("reply %d delivered as from=%s wire=%d", in.id, from.Name(), wb)
		}
		atA = append(atA, *in)
	})
	loop.At(0, func() {
		for i := 1; i <= 3; i++ {
			_ = nw.Send(a, b, ProtoTCP, &tagged{id: i, wire: 1000 * i}, 1000*i)
		}
	})
	loop.Run()
	for i := 0; i < 3; i++ {
		if len(atB) != 3 || len(atA) != 3 || atB[i].id != i+1 || atA[i].id != -(i+1) {
			t.Fatalf("frames %v, replies %v: want 1..3 and -1..-3 in order", atB, atA)
		}
	}
}

func TestHeldFramesSurviveFreeListChurn(t *testing.T) {
	loop, nw := testNet()
	a, b, c := nw.AddNode("a"), nw.AddNode("b"), nw.AddNode("c")
	cut := nw.Connect(a, b)
	nw.Connect(a, c)
	var atB []tagged
	b.Register(ProtoTCP, func(from *Node, p any, wb int) {
		if in := p.(*tagged); from != a || wb != in.wire {
			t.Errorf("held frame %d released as from=%s wire=%d", in.id, from.Name(), wb)
		} else {
			atB = append(atB, *in)
		}
	})
	churned := 0
	c.Register(ProtoTCP, func(from *Node, p any, wb int) {
		if in := p.(*tagged); from != a || wb != in.wire {
			t.Errorf("churn frame %d delivered as from=%s wire=%d", in.id, from.Name(), wb)
		}
		churned++
	})
	cut.SetDown(true)
	loop.At(0, func() {
		for i := 0; i < 5; i++ {
			_ = nw.Send(a, b, ProtoTCP, &tagged{id: i, wire: 100 + i}, 100+i)
		}
	})
	// The other link's traffic takes records off the free list and puts
	// them back for as long as the partition lasts.
	for i := 0; i < 200; i++ {
		i := i
		loop.At(sim.Time(i)*sim.Microsecond, func() {
			_ = nw.Send(a, c, ProtoTCP, &tagged{id: 1000 + i, wire: 64 + i}, 64+i)
		})
	}
	loop.At(sim.Millisecond, func() { cut.SetDown(false) })
	loop.Run()
	if churned != 200 {
		t.Fatalf("churn traffic delivered %d of 200", churned)
	}
	if len(atB) != 5 {
		t.Fatalf("healed link delivered %d of 5 held frames", len(atB))
	}
	for i, f := range atB {
		if f.id != i {
			t.Fatalf("held frames released out of order: %v", atB)
		}
	}
}

func TestLossSurvivorsAreUncorrupted(t *testing.T) {
	loop, nw := testNet()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	link := nw.Connect(a, b)
	link.SetFaults(LinkFaults{LossRate: 0.5})
	last, delivered := -1, 0
	b.Register(ProtoTCP, func(from *Node, p any, wb int) {
		in := p.(*tagged)
		if from != a || wb != in.wire || in.id <= last {
			t.Errorf("survivor %d (after %d) delivered as from=%s wire=%d", in.id, last, from.Name(), wb)
		}
		last = in.id
		delivered++
	})
	// Spread over time, so records of delivered frames are reused while
	// later frames are dropped and never hand theirs back.
	for i := 0; i < 400; i++ {
		i := i
		loop.At(sim.Time(i)*sim.Microsecond, func() {
			_ = nw.Send(a, b, ProtoTCP, &tagged{id: i, wire: 100 + i}, 100+i)
		})
	}
	loop.Run()
	if dropped := int(link.Dropped()); dropped == 0 || delivered == 0 || dropped+delivered != 400 {
		t.Fatalf("loss 0.5: %d delivered + %d dropped of 400", delivered, dropped)
	}
}

func TestFrameDeliveryAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the fabric's")
	}
	loop, nw := testNet()
	a, b := nw.AddNode("a"), nw.AddNode("b")
	nw.Connect(a, b)
	delivered := 0
	b.Register(ProtoTCP, func(*Node, any, int) { delivered++ })
	payload := &tagged{}
	frame := func() {
		_ = nw.Send(a, b, ProtoTCP, payload, 1500)
		loop.Run()
	}
	frame() // warm-up: the frame record and the loop's events exist from here on
	if allocs := testing.AllocsPerRun(200, frame); allocs != 0 {
		t.Errorf("one frame sent and delivered: %v allocs, want 0", allocs)
	}
	if delivered != 202 {
		t.Fatalf("delivered %d frames, want 202", delivered)
	}
}
