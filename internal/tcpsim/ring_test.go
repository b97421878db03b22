package tcpsim

import (
	"bytes"
	"math/rand"
	"testing"

	"rubin/internal/raceflag"
)

// TestRingIsAFIFO drives a ring and a bytes.Buffer with the same random
// writes and reads, wrapping the ring's storage many times: every read
// returns the same bytes.
func TestRingIsAFIFO(t *testing.T) {
	const limit = 1000
	rng := rand.New(rand.NewSource(1))
	var r ring
	var ref bytes.Buffer
	in, out, want := make([]byte, limit), make([]byte, limit), make([]byte, limit)
	for i := range 20000 {
		if n := rng.Intn(limit - r.Len() + 1); rng.Intn(2) == 0 {
			rng.Read(in[:n])
			r.Write(in[:n], limit)
			ref.Write(in[:n])
		} else {
			n = rng.Intn(limit)
			got := r.Read(out[:n])
			exp, _ := ref.Read(want[:n])
			if got != exp || !bytes.Equal(out[:got], want[:exp]) {
				t.Fatalf("step %d: read %d bytes %x, want %d bytes %x", i, got, out[:got], exp, want[:exp])
			}
		}
		if r.Len() != ref.Len() || len(r.buf) > limit {
			t.Fatalf("step %d: ring holds %d bytes in %d of storage, want %d within %d", i, r.Len(), len(r.buf), ref.Len(), limit)
		}
	}
}

// TestDeeperQueueReusesTheRing: once a ring has grown to the socket
// buffer, queues of any depth within it — each write landing wherever the
// last read left the head — allocate nothing. A bytes.Buffer re-grows here
// whenever the queue is deeper than half its storage.
func TestDeeperQueueReusesTheRing(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the path's")
	}
	const limit, msg = 64 << 10, 3000
	var r ring
	p := make([]byte, msg)
	for r.Len()+msg <= limit { // grow to the limit once
		r.Write(p, limit)
	}
	for depth := 1; depth*msg <= limit; depth *= 2 {
		allocs := testing.AllocsPerRun(50, func() {
			for r.Len()+msg <= depth*msg {
				r.Write(p, limit)
			}
			r.Read(p)
		})
		if allocs != 0 {
			t.Errorf("a queue of %d writes allocates %v per write, want 0", depth, allocs)
		}
	}
}
