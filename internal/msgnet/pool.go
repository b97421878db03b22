package msgnet

import "math/bits"

// Free lists for frame buffers, owned by the Mesh (its send-queue items
// recycle through a sim.FreeList). The sim loop is single-threaded, so
// plain LIFO slabs are deterministic: the same sequence of gets and puts
// reproduces the same reuse pattern every run, unlike sync.Pool whose
// GC-driven emptying varies run to run.
//
// Buffers are classed by power-of-two capacity — a get rounds its request
// up to the class size, so a recycled buffer serves any later request of
// its class. Buffers beyond the largest class (a raised MaxTransfer) are
// allocated exactly and never pooled.

// bufClasses caps the pooled size classes; class c holds capacity 1<<c,
// so the largest pooled buffer is 128 MB — past the default 64 MB
// MaxTransfer plus chunk-header overhead.
const bufClasses = 28

// bufClass returns the smallest class whose buffers hold n bytes.
func bufClass(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// getBuf returns a length-n buffer, recycled when the class has one.
func (m *Mesh) getBuf(n int) []byte {
	c := bufClass(n)
	if c >= bufClasses {
		return make([]byte, n)
	}
	fl := m.bufFree[c]
	if last := len(fl) - 1; last >= 0 {
		b := fl[last]
		fl[last] = nil
		m.bufFree[c] = fl[:last]
		return b[:n]
	}
	return make([]byte, n, 1<<c)
}

// putBuf returns a buffer to its class free list. Callers must not touch
// the buffer afterwards — the next getBuf of the class will hand it out.
func (m *Mesh) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	// Floor class: the class capacity never exceeds cap(b), so a get
	// serving n <= 1<<c always fits.
	c := bits.Len(uint(cap(b))) - 1
	if c >= bufClasses {
		return
	}
	m.bufFree[c] = append(m.bufFree[c], b[:0])
}
