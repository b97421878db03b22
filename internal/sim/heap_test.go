package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// The reference scheduler: the container/heap implementation Loop used
// before it sifted its own 4-ary heap, kept here so the property test below
// can ask of every script "does Loop still pop what container/heap popped".
// It recycles nothing, so a stale handle is stale by construction.

type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	index int
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	old[len(old)-1] = nil
	ev.index = -1
	*h = old[:len(old)-1]
	return ev
}

// scheduler is what the script drives: Loop and the reference, each behind
// the same four calls.
type scheduler interface {
	now() Time
	schedule(d Time, fn func()) (cancel func() bool) // d < 0: a deadline in the past
	step() bool
	pending() int
}

type refLoop struct {
	clock Time
	seq   uint64
	h     refHeap
}

func (r *refLoop) now() Time    { return r.clock }
func (r *refLoop) pending() int { return len(r.h) }

func (r *refLoop) schedule(d Time, fn func()) func() bool {
	t := r.clock + d
	if t < r.clock {
		t = r.clock
	}
	r.seq++
	ev := &refEvent{at: t, seq: r.seq, fn: fn}
	heap.Push(&r.h, ev)
	return func() bool {
		if ev.index < 0 {
			return false
		}
		heap.Remove(&r.h, ev.index)
		return true
	}
}

func (r *refLoop) step() bool {
	if len(r.h) == 0 {
		return false
	}
	ev := heap.Pop(&r.h).(*refEvent)
	r.clock = ev.at
	ev.fn()
	return true
}

// realLoop spreads the script's one schedule call over Loop's three.
type realLoop struct{ l *Loop }

func (r realLoop) now() Time    { return r.l.Now() }
func (r realLoop) pending() int { return r.l.Pending() }
func (r realLoop) step() bool   { return r.l.Step() }

func (r realLoop) schedule(d Time, fn func()) func() bool {
	var tm Timer
	switch {
	case d == 0:
		tm = r.l.Post(fn)
	case d > 0 && d%2 == 0:
		tm = r.l.After(d, fn)
	default:
		tm = r.l.At(r.l.Now()+d, fn)
	}
	return tm.Cancel
}

// runHeapScript drives one seeded sequence of arms, cancels and steps and
// returns everything observable: which event fired when, what every Cancel
// answered, and Pending after every operation.
func runHeapScript(s scheduler, seed int64, ops int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	var trace []int64
	var cancels []func() bool // one per event ever armed, in arming order
	var deadline []Time
	var live []bool
	var arm func(d Time)
	arm = func(d Time) {
		id := len(cancels)
		at := s.now() + d
		if at < s.now() {
			at = s.now()
		}
		deadline, live = append(deadline, at), append(live, true)
		cancels = append(cancels, nil)
		cancels[id] = s.schedule(d, func() {
			live[id] = false
			trace = append(trace, int64(id), int64(s.now()))
			if id%4 == 0 {
				arm(Time(id % 5)) // re-arm from inside the callback, often for this instant
			}
		})
	}
	cancel := func(id int) {
		ok := cancels[id]()
		if ok != live[id] {
			trace = append(trace, -9) // a Cancel that lied shows up in both traces' diff
		}
		live[id] = false
		trace = append(trace, -1, int64(id), map[bool]int64{false: 0, true: 1}[ok])
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(20); {
		case r < 8:
			arm(Time(rng.Intn(9) - 2)) // seven distinct deadlines: ties everywhere, some in the past
		case r < 9:
			arm(Time(1000 + rng.Intn(1000))) // a far event that sits at the heap's bottom
		case r < 11 && len(cancels) > 0:
			cancel(rng.Intn(len(cancels))) // anything ever armed: middle of the heap, fired, canceled
		case r < 12 && len(cancels) > 0:
			cancel(len(cancels) - 1) // the newest: usually the heap's last slot
		case r < 13:
			head := -1 // the event that would fire next: the heap's root
			for id := range live {
				if live[id] && (head < 0 || deadline[id] < deadline[head]) {
					head = id
				}
			}
			if head >= 0 {
				cancel(head)
			}
		default:
			if !s.step() {
				trace = append(trace, -2)
			}
		}
		trace = append(trace, -3, int64(s.pending()))
	}
	for s.step() {
	}
	return append(trace, -3, int64(s.pending()))
}

// TestHeapPopsWhatContainerHeapPopped: (at, seq) is a total order, so any
// correct heap fires the same events in the same order — equal deadlines,
// cancels of head, middle and last, cancel-after-fire through a stale
// Timer, and re-arming from inside a callback included.
func TestHeapPopsWhatContainerHeapPopped(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		got := runHeapScript(realLoop{NewLoop(seed)}, seed, 3000)
		want := runHeapScript(&refLoop{}, seed, 3000)
		if len(got) != len(want) {
			t.Fatalf("seed %d: trace has %d entries, the reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: traces part at entry %d: got %v, reference %v",
					seed, i, got[max(0, i-6):i+1], want[max(0, i-6):i+1])
			}
		}
		for _, v := range got {
			if v == -9 {
				t.Fatalf("seed %d: a Cancel's answer disagreed with whether its event was still due", seed)
			}
		}
	}
}
