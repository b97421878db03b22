package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"rubin/internal/raceflag"
)

func TestLoopRunsEventsInTimeOrder(t *testing.T) {
	l := NewLoop(1)
	var got []Time
	for _, d := range []Time{50, 10, 30, 20, 40} {
		d := d
		l.After(d, func() { got = append(got, l.Now()) })
	}
	l.Run()
	want := []Time{10, 20, 30, 40, 50}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at t=%v, want %v", i, got[i], want[i])
		}
	}
}

func TestLoopTieBreakIsFIFO(t *testing.T) {
	l := NewLoop(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		l.At(100, func() { order = append(order, i) })
	}
	l.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-deadline events ran out of order: %v", order)
		}
	}
}

func TestLoopPostRunsAfterQueuedSameInstant(t *testing.T) {
	l := NewLoop(1)
	var order []string
	l.At(0, func() {
		l.Post(func() { order = append(order, "posted") })
	})
	l.At(0, func() { order = append(order, "second") })
	l.Run()
	if len(order) != 2 || order[0] != "second" || order[1] != "posted" {
		t.Fatalf("got order %v, want [second posted]", order)
	}
}

func TestLoopSchedulingInPastClampsToNow(t *testing.T) {
	l := NewLoop(1)
	fired := Time(-1)
	l.At(100, func() {
		l.At(50, func() { fired = l.Now() })
	})
	l.Run()
	if fired != 100 {
		t.Fatalf("past-scheduled event fired at %v, want 100", fired)
	}
}

func TestTimerCancel(t *testing.T) {
	l := NewLoop(1)
	fired := false
	tm := l.After(10, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending before firing")
	}
	if !tm.Cancel() {
		t.Fatal("first Cancel should succeed")
	}
	if tm.Cancel() {
		t.Fatal("second Cancel should fail")
	}
	l.Run()
	if fired {
		t.Fatal("canceled timer fired")
	}
	if tm.Pending() {
		t.Fatal("canceled timer reports pending")
	}
}

func TestTimerCancelAfterFire(t *testing.T) {
	l := NewLoop(1)
	tm := l.After(10, func() {})
	l.Run()
	if tm.Cancel() {
		t.Fatal("Cancel after firing should return false")
	}
	if tm.Pending() {
		t.Fatal("fired timer reports pending")
	}
}

func TestZeroTimerInert(t *testing.T) {
	var tm Timer
	if tm.Cancel() || tm.Pending() {
		t.Fatal("zero timer must be inert")
	}
}

func TestCancelRemovesEventFromHeap(t *testing.T) {
	l := NewLoop(1)
	var timers []Timer
	for i := 0; i < 8; i++ {
		timers = append(timers, l.After(Time(10*(i+1)), func() {}))
	}
	if l.Pending() != 8 {
		t.Fatalf("pending = %d, want 8", l.Pending())
	}
	// Cancel from the middle: the heap must shrink immediately, not at
	// the event's deadline.
	if !timers[3].Cancel() {
		t.Fatal("Cancel failed")
	}
	if l.Pending() != 7 {
		t.Fatalf("pending after cancel = %d, want 7 (lazy removal?)", l.Pending())
	}
	for _, tm := range timers {
		tm.Cancel()
	}
	if l.Pending() != 0 {
		t.Fatalf("pending after canceling all = %d, want 0", l.Pending())
	}
	fired := false
	l.After(5, func() { fired = true })
	l.Run()
	if !fired {
		t.Fatal("loop unusable after cancellations")
	}
}

func TestRecycledEventIgnoresStaleTimer(t *testing.T) {
	l := NewLoop(1)
	stale := l.After(10, func() {})
	if !stale.Cancel() {
		t.Fatal("Cancel failed")
	}
	// The canceled event goes back to the free list; the next At reuses
	// it. The stale handle must not be able to cancel the new occupant.
	fired := false
	fresh := l.After(20, func() { fired = true })
	if stale.Cancel() || stale.Pending() {
		t.Fatal("stale timer still acts on the recycled event")
	}
	if !fresh.Pending() {
		t.Fatal("fresh timer not pending")
	}
	l.Run()
	if !fired {
		t.Fatal("recycled event did not fire")
	}
}

func TestCancelOrderDeterminismUnchanged(t *testing.T) {
	// Interleaving cancellations must not perturb the (time, seq) order
	// of the surviving events.
	run := func() []int {
		l := NewLoop(3)
		var got []int
		var timers []Timer
		for i := 0; i < 50; i++ {
			i := i
			timers = append(timers, l.At(Time(i%7)*10, func() { got = append(got, i) }))
		}
		for i := 0; i < 50; i += 3 {
			timers[i].Cancel()
		}
		l.Run()
		return got
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestRunUntilAdvancesClock(t *testing.T) {
	l := NewLoop(1)
	ran := false
	l.At(10, func() { ran = true })
	l.At(500, func() { t.Error("event beyond horizon ran") })
	l.RunUntil(100)
	if !ran {
		t.Fatal("event before horizon did not run")
	}
	if l.Now() != 100 {
		t.Fatalf("clock at %v, want 100", l.Now())
	}
	if l.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", l.Pending())
	}
}

func TestRunUntilDrainedQueueStillAdvances(t *testing.T) {
	l := NewLoop(1)
	l.RunUntil(42)
	if l.Now() != 42 {
		t.Fatalf("clock at %v, want 42", l.Now())
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	l := NewLoop(1)
	if l.Step() {
		t.Fatal("Step on empty loop returned true")
	}
}

func TestEventLimitPanics(t *testing.T) {
	l := NewLoop(1)
	l.SetEventLimit(5)
	var reschedule func()
	reschedule = func() { l.After(1, reschedule) }
	l.After(1, reschedule)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic from event limit")
		}
	}()
	l.Run()
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func(seed int64) []Time {
		l := NewLoop(seed)
		var trace []Time
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			l.At(Time(rng.Int63n(1000)), func() {
				trace = append(trace, l.Now())
				if l.Rand().Intn(2) == 0 {
					l.After(Time(l.Rand().Int63n(100)), func() {
						trace = append(trace, l.Now())
					})
				}
			})
		}
		l.Run()
		return trace
	}
	a, b := run(99), run(99)
	if len(a) != len(b) {
		t.Fatalf("different trace lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any set of deadlines, execution order is the sorted order.
func TestPropertyEventOrdering(t *testing.T) {
	prop := func(deadlines []uint16) bool {
		l := NewLoop(1)
		var got []Time
		for _, d := range deadlines {
			l.At(Time(d), func() { got = append(got, l.Now()) })
		}
		l.Run()
		want := make([]Time, len(deadlines))
		for i, d := range deadlines {
			want[i] = Time(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: clock never moves backwards regardless of scheduling pattern.
func TestPropertyMonotonicClock(t *testing.T) {
	prop := func(seed int64, n uint8) bool {
		l := NewLoop(seed)
		last := Time(0)
		ok := true
		var spawn func(depth int)
		spawn = func(depth int) {
			if l.Now() < last {
				ok = false
			}
			last = l.Now()
			if depth > 0 {
				l.After(Time(l.Rand().Int63n(50)), func() { spawn(depth - 1) })
			}
		}
		for i := 0; i < int(n%16)+1; i++ {
			l.At(Time(l.Rand().Int63n(100)), func() { spawn(3) })
		}
		l.Run()
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAtFireAllocsSteadyState(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	fn := func() {}
	// The measured timer sits in a heap already holding parked events, as
	// a replica's does (request timers, heartbeats, batch deadlines).
	for _, parked := range []int{0, 1, 64, 1024} {
		l := NewLoop(1)
		for i := 0; i < parked; i++ {
			l.At(1<<40, fn) // far future: never runs
		}
		fire := func() {
			at := l.Now() + 1
			l.At(at, fn)
			l.RunUntil(at)
		}
		cancel := func() { l.After(1, fn).Cancel() }
		// Warm up: grow the heap backing array and seed the free list.
		for i := 0; i < 64; i++ {
			l.After(1, fn)
		}
		l.RunUntil(l.Now() + 1)
		if avg := testing.AllocsPerRun(200, fire); avg != 0 {
			t.Errorf("%d parked: At+fire allocates %.2f/op steady-state, want 0", parked, avg)
		}
		if avg := testing.AllocsPerRun(200, cancel); avg != 0 {
			t.Errorf("%d parked: At+Cancel allocates %.2f/op steady-state, want 0", parked, avg)
		}
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{500, "500ns"},
		{1500, "1.50µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
		{-1500, "-1.50µs"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if Microsecond.Micros() != 1 {
		t.Error("Micros conversion wrong")
	}
	if Second.Seconds() != 1 {
		t.Error("Seconds conversion wrong")
	}
}
