package tcpsim

// ring is a socket buffer: a FIFO of bytes in storage that is reused,
// wrapping round. It grows only when a write would not fit — by doubling,
// to at most the socket buffer size that bounds a connection's queue — so a
// queue that runs deeper than before costs one allocation, not one per
// write that finds the storage's tail taken.
type ring struct {
	buf     []byte
	head, n int
}

// Len returns the number of bytes queued.
func (r *ring) Len() int { return r.n }

// Write queues p. limit is the most the ring ever holds, the socket buffer.
func (r *ring) Write(p []byte, limit int) {
	if len(p) == 0 {
		return
	}
	if need := r.n + len(p); need > len(r.buf) {
		grown := make([]byte, max(need, min(2*len(r.buf), limit)))
		r.peek(grown)
		r.buf, r.head = grown, 0
	}
	tail := (r.head + r.n) % len(r.buf)
	c := copy(r.buf[tail:], p)
	copy(r.buf, p[c:])
	r.n += len(p)
}

// Read moves up to len(p) of the oldest bytes into p and returns how many.
func (r *ring) Read(p []byte) int {
	k := r.peek(p)
	if k == 0 {
		return 0
	}
	r.head, r.n = (r.head+k)%len(r.buf), r.n-k
	if r.n == 0 {
		r.head = 0
	}
	return k
}

// peek copies up to len(p) of the oldest bytes into p, leaving them queued.
func (r *ring) peek(p []byte) int {
	k := min(len(p), r.n)
	if k == 0 {
		return 0
	}
	c := copy(p[:k], r.buf[r.head:])
	copy(p[c:k], r.buf)
	return k
}
