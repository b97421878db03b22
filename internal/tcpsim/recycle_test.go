package tcpsim

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/raceflag"
	"rubin/internal/sim"
)

// scribble overwrites a buffer its owner is done with: whatever still
// aliases it shows up as 0xEE in the received stream.
func scribble(b []byte) {
	for i := range b {
		b[i] = 0xEE
	}
}

// stream drives one direction of a connection with random Write sizes
// against random Read buffer sizes, and keeps the model: the bytes Write
// accepted, in order, and the bytes Read returned, in order.
type stream struct {
	t        *testing.T
	rng      *rand.Rand
	from, to *Conn
	writes   int    // Writes still to start
	pending  []byte // the part of the current Write not yet accepted
	scratch  []byte // what Write is handed, scribbled over on return
	readBuf  []byte
	accepted []byte
	received []byte
	short    int // Writes that returned a short count
}

func newStream(t *testing.T, rng *rand.Rand, from, to *Conn, writes int) *stream {
	s := &stream{t: t, rng: rng, from: from, to: to, writes: writes, readBuf: make([]byte, 100<<10)}
	from.OnWritable(s.write)
	to.OnReadable(s.read)
	return s
}

func (s *stream) write() {
	for {
		if len(s.pending) == 0 {
			if s.writes == 0 {
				return
			}
			s.writes--
			size := 1 + s.rng.Intn(300<<10)
			if s.rng.Intn(2) == 0 {
				size = 1 + s.rng.Intn(2000)
			}
			s.pending = make([]byte, size)
			s.rng.Read(s.pending)
		}
		s.scratch = append(s.scratch[:0], s.pending...)
		n, err := s.from.Write(s.scratch)
		if err != nil {
			s.t.Errorf("Write: %v", err)
			return
		}
		scribble(s.scratch)
		s.accepted = append(s.accepted, s.pending[:n]...)
		s.pending = s.pending[n:]
		if n == 0 {
			return // resumed by OnWritable
		}
		if len(s.pending) > 0 {
			s.short++
		}
	}
}

func (s *stream) read() {
	for {
		buf := s.readBuf[:1+s.rng.Intn(len(s.readBuf))]
		n, err := s.to.Read(buf)
		if err != nil {
			s.t.Errorf("Read: %v", err)
			return
		}
		if n == 0 {
			return
		}
		s.received = append(s.received, buf[:n]...)
		scribble(buf[:n])
	}
}

// The socket buffers, the per-Write size queue and the segment records are
// all reused; the model is that none of it shows: over 20 seeds, both
// directions at once, with Writes larger than the window (short counts,
// OnWritable resumption) and both sides scribbling over their buffers the
// moment they get them back, what is received is what was accepted.
func TestStreamSurvivesBufferReuse(t *testing.T) {
	params := model.Default()
	params.TCP.SocketBuffer = 64 << 10
	short := 0
	for seed := int64(1); seed <= 20; seed++ {
		p := newPairWith(params)
		client, server := p.connect(t, 1000)
		rng := rand.New(rand.NewSource(seed))
		up := newStream(t, rng, client, server, 12)
		down := newStream(t, rng, server, client, 12)
		p.loop.Post(up.write)
		p.loop.Post(down.write)
		p.loop.Run()
		for name, s := range map[string]*stream{"up": up, "down": down} {
			if s.writes != 0 || len(s.pending) != 0 {
				t.Fatalf("seed %d %s: stalled with %d writes and %d bytes to go", seed, name, s.writes, len(s.pending))
			}
			if !bytes.Equal(s.received, s.accepted) {
				t.Fatalf("seed %d %s: received %d bytes, accepted %d; streams differ", seed, name, len(s.received), len(s.accepted))
			}
			short += s.short
		}
		for name, c := range map[string]*Conn{"client": client, "server": server} {
			if c.Readable() != 0 || c.WritableSpace() != params.TCP.SocketBuffer {
				t.Fatalf("seed %d %s: idle with Readable %d, WritableSpace %d", seed, name, c.Readable(), c.WritableSpace())
			}
		}
	}
	if short == 0 {
		t.Fatal("no Write returned a short count: the window was never filled")
	}
}

// record is a self-describing 1000-byte Write — one segment.
func record(i int) []byte {
	b := make([]byte, 1000)
	binary.BigEndian.PutUint32(b, uint32(i))
	for j := 4; j < len(b); j++ {
		b[j] = byte(i*31 + j)
	}
	return b
}

// drainInto reads everything readable on c into *got.
func drainInto(c *Conn, got *[]byte) func() {
	buf := make([]byte, 64<<10)
	return func() {
		for {
			n, _ := c.Read(buf)
			if n == 0 {
				return
			}
			*got = append(*got, buf[:n]...)
		}
	}
}

// A partition parks segments on the link for as long as it lasts. They are
// not on the free list meanwhile: a second connection of the same sending
// stack, turning that list over hundreds of times, must not change a byte
// of them.
func TestHeldSegmentsSurviveListChurn(t *testing.T) {
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	a, b, c := nw.AddNode("a"), nw.AddNode("b"), nw.AddNode("c")
	ab := nw.Connect(a, b)
	nw.Connect(a, c)
	sa, sb, sc := NewStack(a), NewStack(b), NewStack(c)
	var toB, toC, atB, atC *Conn
	if _, err := sb.Listen(1, func(conn *Conn) { atB = conn }); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Listen(1, func(conn *Conn) { atC = conn }); err != nil {
		t.Fatal(err)
	}
	loop.Post(func() {
		sa.Dial(b, 1, func(conn *Conn, err error) { toB = conn })
		sa.Dial(c, 1, func(conn *Conn, err error) { toC = conn })
	})
	loop.Run()
	if toB == nil || toC == nil || atB == nil || atC == nil {
		t.Fatal("handshakes did not complete")
	}
	var gotB, gotC, wantB, wantC []byte
	atB.OnReadable(drainInto(atB, &gotB))
	atC.OnReadable(drainInto(atC, &gotC))

	ab.SetDown(true)
	loop.Post(func() {
		for i := 0; i < 40; i++ {
			wantB = append(wantB, record(i)...)
			_, _ = toB.Write(record(i))
		}
	})
	for i := 0; i < 300; i++ {
		i := i
		loop.After(sim.Time(i)*100*sim.Microsecond, func() {
			msg := bytes.Repeat([]byte{0xC0 + byte(i%16)}, 1+i*5)
			wantC = append(wantC, msg...)
			_, _ = toC.Write(msg)
		})
	}
	loop.Run()
	if ab.Held() != 40 || len(gotB) != 0 {
		t.Fatalf("partitioned: %d frames held, %d bytes delivered; want 40 and 0", ab.Held(), len(gotB))
	}
	if !bytes.Equal(gotC, wantC) {
		t.Fatalf("churning connection: received %d bytes, want %d; data corrupted", len(gotC), len(wantC))
	}
	ab.SetDown(false)
	loop.Run()
	if !bytes.Equal(gotB, wantB) {
		t.Fatalf("after heal: received %d bytes, want %d; held segments corrupted or reordered", len(gotB), len(wantB))
	}
}

// A segment on a dropped frame never comes home; the ones that do arrive
// are whole, unchanged and in order, however the list turned over between.
func TestLossLeavesSurvivingSegmentsIntact(t *testing.T) {
	p := newPair(t)
	client, server := p.connect(t, 1000)
	link := p.nw.Link(p.a, p.b)
	link.SetFaults(fabric.LinkFaults{LossRate: 0.5})
	var got []byte
	server.OnReadable(drainInto(server, &got))
	const total = 400
	for i := 0; i < total; i++ {
		i := i
		p.loop.After(sim.Time(i)*20*sim.Microsecond, func() { _, _ = client.Write(record(i)) })
	}
	p.loop.Run()
	if len(got)%1000 != 0 {
		t.Fatalf("received %d bytes: not whole segments", len(got))
	}
	arrived, last := len(got)/1000, -1
	if arrived == 0 || arrived == total || link.Dropped() == 0 {
		t.Fatalf("loss 0.5: %d of %d segments arrived, %d frames dropped", arrived, total, link.Dropped())
	}
	for k := 0; k < arrived; k++ {
		rec := got[k*1000 : (k+1)*1000]
		i := int(binary.BigEndian.Uint32(rec))
		if i <= last || i >= total || !bytes.Equal(rec, record(i)) {
			t.Fatalf("segment %d of the received stream (record %d after %d) is corrupted or out of order", k, i, last)
		}
		last = i
	}
}

// freeSegments returns the records on a stack's free list (a recycled one
// names its home; a fresh one does not).
func freeSegments(s *Stack) map[*segment]bool {
	var got []*segment
	for seg := s.segments.Get(); seg.home != nil; seg = s.segments.Get() {
		got = append(got, seg)
	}
	set := make(map[*segment]bool, len(got))
	for i := len(got) - 1; i >= 0; i-- {
		set[got[i]] = true
		s.segments.Put(got[i])
	}
	return set
}

// handleSegment returns early for a connection that is gone; the record
// goes home all the same. Ten connect / write 100 KiB / close-on-first-byte
// cycles leave both stacks' lists holding exactly the records the first
// cycle made: none lost to the closed path, so none made to replace it.
func TestSegmentsForClosedConnGoHome(t *testing.T) {
	p := newPair(t)
	var server *Conn
	if _, err := p.sb.Listen(1000, func(c *Conn) { server = c }); err != nil {
		t.Fatal(err)
	}
	msg := make([]byte, 100<<10)
	cycle := func() {
		var client *Conn
		p.loop.Post(func() {
			p.sa.Dial(p.b, 1000, func(c *Conn, err error) { client = c })
		})
		p.loop.Run()
		if client == nil {
			t.Fatal("handshake did not complete")
		}
		srv := server
		srv.OnReadable(srv.Close)
		p.loop.Post(func() { _, _ = client.Write(msg) })
		p.loop.Run()
		if srv.Established() || srv.Readable() == 0 || srv.Readable() >= len(msg) {
			t.Fatalf("server closed=%v with %d of %d bytes: no segment met a closed connection", !srv.Established(), srv.Readable(), len(msg))
		}
	}
	cycle()
	freeA, freeB := freeSegments(p.sa), freeSegments(p.sb)
	if frames := p.nw.Params().Link.Frames(len(msg)); len(freeA) < frames {
		t.Fatalf("%d records on the sender's list after %d DATA segments", len(freeA), frames)
	}
	for i := 0; i < 10; i++ {
		cycle()
	}
	for name, lists := range map[string][2]map[*segment]bool{"a": {freeA, freeSegments(p.sa)}, "b": {freeB, freeSegments(p.sb)}} {
		before, after := lists[0], lists[1]
		if len(after) != len(before) {
			t.Fatalf("stack %s: %d records on the list after churn, %d before", name, len(after), len(before))
		}
		for seg := range after {
			if !before[seg] {
				t.Fatalf("stack %s: the list holds a record made during churn: one was lost", name)
			}
		}
	}
}

// Write → sendBuf → segments → recvBuf → Read allocates nothing once the
// buffers, the size queues and the segment records exist.
func TestTransferAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the stack's")
	}
	for _, size := range []int{1000, 100 << 10} {
		p := newPair(t)
		client, server := p.connect(t, 1000)
		buf, received := make([]byte, 64<<10), 0
		server.OnReadable(func() {
			for {
				n, _ := server.Read(buf)
				if n == 0 {
					return
				}
				received += n
			}
		})
		msg := bytes.Repeat([]byte{7}, size)
		transfer := func() {
			if n, err := client.Write(msg); n != size || err != nil {
				t.Fatalf("Write = (%d, %v), want (%d, nil)", n, err, size)
			}
			p.loop.Run()
		}
		for i := 0; i < 4; i++ {
			transfer() // warm-up
		}
		allocs := testing.AllocsPerRun(100, transfer)
		t.Logf("%d B written, segmented and read: %v allocs", size, allocs)
		if allocs != 0 {
			t.Errorf("%d B written, segmented and read: %v allocs, want 0", size, allocs)
		}
		if received != 105*size {
			t.Fatalf("received %d bytes, want %d", received, 105*size)
		}
	}
}
