package sim

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rubin/internal/raceflag"
)

// TestQueueMatchesSliceModel drives random push/pop/front/at sequences
// through growth and wrap-around against a plain slice.
func TestQueueMatchesSliceModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue[int]
		var model []int
		next := 0
		// Phases lean towards filling, then towards draining, so the ring
		// both doubles several times and wraps at every size it reaches.
		for step := 0; step < 4000; step++ {
			pushBias := 6
			if (step/500)%2 == 1 {
				pushBias = 3
			}
			if rng.Intn(10) < pushBias {
				q.Push(next)
				model = append(model, next)
				next++
			} else if len(model) > 0 {
				if got := q.Pop(); got != model[0] {
					t.Fatalf("seed %d step %d: Pop = %d, want %d", seed, step, got, model[0])
				}
				model = model[1:]
			}
			if q.Len() != len(model) {
				t.Fatalf("seed %d step %d: Len = %d, want %d", seed, step, q.Len(), len(model))
			}
			if len(model) > 0 {
				if *q.Front() != model[0] {
					t.Fatalf("seed %d step %d: Front = %d, want %d", seed, step, *q.Front(), model[0])
				}
				if i := rng.Intn(len(model)); *q.At(i) != model[i] {
					t.Fatalf("seed %d step %d: At(%d) = %d, want %d", seed, step, i, *q.At(i), model[i])
				}
			}
			if n := len(q.buf); n&(n-1) != 0 {
				t.Fatalf("seed %d step %d: ring size %d is not a power of two", seed, step, n)
			}
		}
	}
}

func TestQueueFrontRewritesInPlace(t *testing.T) {
	var q Queue[[]byte]
	q.Push([]byte("head"))
	q.Push([]byte("tail"))
	*q.Front() = (*q.Front())[2:]
	if got := string(q.Pop()); got != "ad" {
		t.Fatalf("rewritten front popped as %q, want \"ad\"", got)
	}
	if got := string(q.Pop()); got != "tail" {
		t.Fatalf("second element popped as %q", got)
	}
}

func TestQueueAccessPastTheEndPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Pop of a drained queue":      func() { var q Queue[int]; q.Push(1); q.Pop(); q.Pop() },
		"Front of a never-used queue": func() { var q Queue[int]; q.Front() },
		"At past the back":            func() { var q Queue[int]; q.Push(1); q.At(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// A popped element is the caller's alone: the cell it left holds the zero
// value, so the queue's backing array does not keep it alive. The
// q = q[1:] FIFOs this type replaced kept every popped element reachable
// until the next append happened to reallocate.
func TestQueuePopReleasesElement(t *testing.T) {
	type payload struct{ bytes [32 << 10]byte }
	var q Queue[*payload]
	freed := make(chan struct{})
	func() {
		p := &payload{}
		runtime.SetFinalizer(p, func(*payload) { close(freed) })
		q.Push(p)
		q.Push(&payload{})
		if q.Pop() != p {
			t.Fatal("Pop returned the wrong element")
		}
	}()
	for i, cell := range q.buf {
		if i != q.head && cell != nil {
			t.Fatalf("cell %d still holds %p after its element was popped", i, cell)
		}
	}
	deadline := time.After(10 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			if q.Len() != 1 || *q.Front() == nil {
				t.Fatal("the queue lost its live element")
			}
			return
		case <-deadline:
			t.Fatal("popped element not collected while the queue is live")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

func TestQueueAndFreeListSteadyStateAllocateNothing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the queue's")
	}
	var q Queue[[]byte]
	msg := make([]byte, 8)
	for i := 0; i < 5; i++ { // steady depth 5: one doubling past the first ring
		q.Push(msg)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		q.Push(msg)
		q.Pop()
	}); allocs != 0 {
		t.Errorf("Queue push/pop at steady depth: %v allocs, want 0", allocs)
	}
	var f FreeList[event]
	f.Put(f.Get())
	if allocs := testing.AllocsPerRun(1000, func() { f.Put(f.Get()) }); allocs != 0 {
		t.Errorf("FreeList get/put: %v allocs, want 0", allocs)
	}
}

func TestFreeListIsLIFOAndMakesNewWhenEmpty(t *testing.T) {
	var f FreeList[event]
	a, b := f.Get(), f.Get()
	if a == b || a == nil {
		t.Fatal("empty list must hand out distinct new records")
	}
	f.Put(a)
	f.Put(b)
	if f.Get() != b || f.Get() != a {
		t.Fatal("records must come back last in, first out")
	}
	if c := f.Get(); c == a || c == b {
		t.Fatal("a drained list handed out a record it no longer holds")
	}
}
