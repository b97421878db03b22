// Package sim provides a deterministic discrete-event simulation kernel.
//
// All simulated components in this repository (network fabric, TCP stack,
// RDMA verbs, selectors, BFT replicas) run as event handlers on a single
// Loop with a virtual nanosecond clock. Determinism is guaranteed by a
// strict (time, sequence) ordering of events and a seeded random source,
// so every experiment regenerates identical numbers.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a virtual timestamp or duration in nanoseconds.
type Time int64

// Common durations, mirroring time.Duration's constants.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time using the most natural unit, e.g. "12.5µs".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.2fµs", t.Micros())
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	}
}

// Micros returns the time as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// Seconds returns the time as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is a scheduled callback. Events with equal deadlines fire in the
// order they were scheduled (seq tie-break), which keeps runs reproducible.
//
// Events are pooled: once fired or canceled they return to the loop's free
// list and are reused by later At calls. gen increments on every release so
// a stale Timer holding a recycled event cannot cancel its new occupant.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	index int    // heap index, -1 while released
	gen   uint64 // reuse generation, bumped on release
}

// less is the loop's total order: deadline, then scheduling sequence. seq is
// unique, so no two events compare equal and every correct heap pops the
// same sequence — the layout below is free to change, the order is not.
func less(a, b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// The event queue is a 4-ary min-heap sifted inline on []*event (half a
// binary heap's depth, no interface calls). Every move records the event's
// slot in index, which lets Timer.Cancel remove one from the middle.

// up settles ev, which belongs at or above slot i, sliding parents down.
func (l *Loop) up(i int, ev *event) {
	h := l.events
	for p := (i - 1) / 4; i > 0 && less(ev, h[p]); p = (i - 1) / 4 {
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i], ev.index = ev, i
}

// down settles ev, which belongs at or below slot i, pulling the least
// child up.
func (l *Loop) down(i int, ev *event) {
	h := l.events
	for c := 4*i + 1; c < len(h); c = 4*i + 1 {
		m, end := c, min(c+4, len(h))
		for j := c + 1; j < end; j++ {
			if less(h[j], h[m]) {
				m = j
			}
		}
		if !less(h[m], ev) {
			break
		}
		h[i] = h[m]
		h[i].index = i
		i = m
	}
	h[i], ev.index = ev, i
}

// remove takes the event in slot i out of the heap, for release: the last
// event fills the hole and settles downwards or, if it stayed put, upwards.
func (l *Loop) remove(i int) *event {
	ev := l.events[i]
	n := len(l.events) - 1
	last := l.events[n]
	l.events[n] = nil
	l.events = l.events[:n]
	if i < n {
		l.down(i, last)
		if last.index == i {
			l.up(i, last)
		}
	}
	return ev
}

// Timer is a value handle to a scheduled event; Cancel prevents it from
// firing. The zero Timer is inert: Cancel and Pending return false. Timers
// may be copied freely; every copy refers to the same scheduled event.
type Timer struct {
	loop *Loop
	ev   *event
	gen  uint64
}

// Cancel stops the timer, removing its event from the queue immediately
// (O(log n)) and recycling it. It reports whether the callback had not yet
// fired and was successfully prevented from firing. Cancel on a zero Timer
// or an already-fired/canceled timer is a no-op returning false.
func (t Timer) Cancel() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.index < 0 {
		return false
	}
	t.loop.release(t.loop.remove(ev.index))
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.index >= 0
}

// Loop is a single-threaded discrete-event scheduler with a virtual clock.
// It is not safe for concurrent use; all simulated activity must happen in
// event callbacks on the loop.
type Loop struct {
	now       Time
	events    []*event // 4-ary min-heap ordered by less
	seq       uint64
	rng       *rand.Rand
	processed uint64
	maxEvents uint64 // safety valve against runaway simulations; 0 = unlimited

	free FreeList[event] // fired and canceled events
}

// NewLoop returns a Loop whose random source is seeded with seed.
func NewLoop(seed int64) *Loop {
	return &Loop{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (l *Loop) Now() Time { return l.now }

// Rand returns the loop's deterministic random source.
func (l *Loop) Rand() *rand.Rand { return l.rng }

// Processed returns the number of events executed so far.
func (l *Loop) Processed() uint64 { return l.processed }

// SetEventLimit caps the total number of events the loop will execute;
// Run panics once the cap is exceeded. Zero disables the cap.
func (l *Loop) SetEventLimit(n uint64) { l.maxEvents = n }

// release returns a fired or canceled event to the free list. Bumping gen
// invalidates every outstanding Timer for the old occupancy.
func (l *Loop) release(ev *event) {
	ev.fn = nil
	ev.index = -1
	ev.gen++
	l.free.Put(ev)
}

// At schedules fn to run at virtual time t. Scheduling in the past (t less
// than Now) runs the event at the current time, after already-queued events
// for that instant.
func (l *Loop) At(t Time, fn func()) Timer {
	if fn == nil {
		panic("sim: At with nil callback")
	}
	if t < l.now {
		t = l.now
	}
	l.seq++
	ev := l.free.Get()
	ev.at, ev.seq, ev.fn = t, l.seq, fn
	l.events = append(l.events, ev)
	l.up(len(l.events)-1, ev)
	return Timer{loop: l, ev: ev, gen: ev.gen}
}

// After schedules fn to run d nanoseconds from now.
func (l *Loop) After(d Time, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return l.At(l.now+d, fn)
}

// Post schedules fn to run at the current virtual time, after all events
// already queued for this instant.
func (l *Loop) Post(fn func()) Timer { return l.At(l.now, fn) }

// Step executes the single next event, advancing the clock to its deadline.
// It reports whether an event was executed. The event is released before
// its callback runs, so the callback may reschedule without growing the
// pool; a Timer held on the firing event reports Pending false inside it.
func (l *Loop) Step() bool {
	if len(l.events) == 0 {
		return false
	}
	ev := l.remove(0)
	l.now = ev.at
	l.processed++
	if l.maxEvents != 0 && l.processed > l.maxEvents {
		panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", l.maxEvents, l.now))
	}
	fn := ev.fn
	l.release(ev)
	fn()
	return true
}

// Run executes events until the queue is empty.
func (l *Loop) Run() {
	for l.Step() {
	}
}

// RunUntil executes events with deadlines at or before t, then advances the
// clock to exactly t (even if the queue drained earlier).
func (l *Loop) RunUntil(t Time) {
	for len(l.events) > 0 && l.events[0].at <= t {
		l.Step()
	}
	if l.now < t {
		l.now = t
	}
}

// Pending returns the number of scheduled events in the queue. Canceled
// events leave the queue immediately, so every counted event is live.
func (l *Loop) Pending() int { return len(l.events) }
