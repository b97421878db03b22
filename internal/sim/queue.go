package sim

// Queue is a FIFO on a power-of-two ring: the one queue every simulated
// layer uses for work that waits its turn. The zero value is an empty queue
// that owns no memory; the ring is allocated by the first Push and doubles
// when full, so a queue costs what its deepest backlog cost and a steady
// push/pop rate allocates nothing. Pop zeroes the cell it vacates — a
// handed-off element is not kept reachable by the queue it left. Like
// everything on a Loop it is not safe for concurrent use.
type Queue[T any] struct {
	buf  []T // len is zero or a power of two
	head int // index of the front element
	n    int
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return q.n }

// Push appends v at the back.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// grow doubles the ring, unrolling it so the front lands at index 0.
func (q *Queue[T]) grow() {
	buf := make([]T, max(4, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// Pop removes and returns the front element. It panics on an empty queue.
func (q *Queue[T]) Pop() T {
	p := q.At(0)
	v := *p
	var zero T
	*p = zero
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return v
}

// Front is At(0): the front element, to peek at or rewrite in place.
func (q *Queue[T]) Front() *T { return q.At(0) }

// At returns a pointer to the i-th element from the front, good until the
// next Push or Pop. It panics when i is out of range.
func (q *Queue[T]) At(i int) *T {
	if i < 0 || i >= q.n {
		panic("sim: Queue index out of range")
	}
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}
