package sim

import (
	"testing"
	"testing/quick"

	"rubin/internal/raceflag"
)

func TestResourceSingleServerSerializes(t *testing.T) {
	l := NewLoop(1)
	r := NewResource(l, "cpu", 1)
	var done []Time
	l.At(0, func() {
		r.Acquire(0, 100, func() { done = append(done, l.Now()) })
		r.Acquire(0, 50, func() { done = append(done, l.Now()) })
		r.Acquire(0, 25, func() { done = append(done, l.Now()) })
	})
	l.Run()
	want := []Time{100, 150, 175}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v (all: %v)", i, done[i], want[i], done)
		}
	}
}

func TestResourceMultiServerParallel(t *testing.T) {
	l := NewLoop(1)
	r := NewResource(l, "cpu", 2)
	var done []Time
	l.At(0, func() {
		r.Acquire(0, 100, func() { done = append(done, l.Now()) }) // server 0: 0..100
		r.Acquire(0, 100, func() { done = append(done, l.Now()) }) // server 1: 0..100
		r.Acquire(0, 100, func() { done = append(done, l.Now()) }) // queued: 100..200
	})
	l.Run()
	want := []Time{100, 100, 200}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion %d at %v, want %v", i, done[i], want[i])
		}
	}
}

func TestResourceIdleGapResets(t *testing.T) {
	l := NewLoop(1)
	r := NewResource(l, "cpu", 1)
	var second Time
	l.At(0, func() { r.Acquire(0, 10, nil) })
	l.At(1000, func() { r.Acquire(0, 10, func() { second = l.Now() }) })
	l.Run()
	if second != 1010 {
		t.Fatalf("job after idle gap finished at %v, want 1010", second)
	}
}

func TestResourceStats(t *testing.T) {
	l := NewLoop(1)
	r := NewResource(l, "cpu", 1)
	l.At(0, func() {
		r.Acquire(0, 60, func() {})
		r.Acquire(0, 40, func() {})
	})
	l.At(50, func() {
		if s := r.Served(); s != 50 {
			t.Errorf("Served at 50 = %v, want 50: the work still queued is not served yet", s)
		}
	})
	l.Run()
	if r.jobs != 2 {
		t.Errorf("Jobs = %d, want 2", r.jobs)
	}
	if r.BusyTotal() != 100 {
		t.Errorf("BusyTotal = %v, want 100", r.BusyTotal())
	}
	if s := r.Served(); s != 100 {
		t.Errorf("Served = %v, want 100", s)
	}
}

func TestResourceNegativeServiceClamped(t *testing.T) {
	l := NewLoop(1)
	r := NewResource(l, "cpu", 1)
	var at Time = -1
	l.At(5, func() { r.Acquire(0, -10, func() { at = l.Now() }) })
	l.Run()
	if at != 5 {
		t.Fatalf("negative-service job completed at %v, want 5", at)
	}
}

func TestNewResourcePanicsOnZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewResource(NewLoop(1), "bad", 0)
}

// Property: on a single-server resource, completions preserve submission
// order and never overlap (finish[i] + service[i+1] <= finish[i+1]).
func TestPropertyResourceFIFO(t *testing.T) {
	prop := func(services []uint8) bool {
		l := NewLoop(1)
		r := NewResource(l, "cpu", 1)
		var finishes []Time
		l.At(0, func() {
			for _, s := range services {
				r.Acquire(0, Time(s), func() { finishes = append(finishes, l.Now()) })
			}
		})
		l.Run()
		if len(finishes) != len(services) {
			return false
		}
		var expect Time
		for i, s := range services {
			expect += Time(s)
			if finishes[i] != expect {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: total busy time equals the sum of service times, regardless of
// server count, and each kind's total the sum of its own charges.
func TestPropertyResourceBusyAccounting(t *testing.T) {
	prop := func(services []uint8, servers uint8) bool {
		k := int(servers%4) + 1
		l := NewLoop(1)
		r := NewResource(l, "cpu", k)
		var sum Time
		var want Busy
		l.At(0, func() {
			for i, s := range services {
				kind := Kind(i % Kinds)
				sum += Time(s)
				want[kind] += Time(s)
				r.Acquire(kind, Time(s), nil)
			}
		})
		l.Run()
		return r.BusyTotal() == sum && r.Snapshot() == want && r.Snapshot().Total() == sum
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Charging a kind allocates nothing: the per-kind totals are a fixed array.
func TestChargeAllocatesNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	l := NewLoop(1)
	r := NewResource(l, "cpu", 2)
	var kind Kind
	allocs := testing.AllocsPerRun(1000, func() {
		r.Acquire(kind, 3, nil)
		r.Delay(kind, 1)
		_ = r.Snapshot()
		kind = (kind + 1) % Kinds
	})
	if allocs != 0 {
		t.Fatalf("a charge allocates %v objects, want 0", allocs)
	}
}
