package sim

// FreeList recycles records of one type: a plain LIFO, deterministic on the
// single-threaded loop where sync.Pool is not. It is an optimisation, never
// accounting: a record dropped instead of Put back is ordinary garbage, and
// an owner may Put one only once nothing else can still reach it.
type FreeList[T any] struct{ free []*T }

// Get returns a recycled record, still holding whatever its last user left
// in it, or a new zero one when the list is empty.
func (f *FreeList[T]) Get() *T {
	n := len(f.free)
	if n == 0 {
		return new(T)
	}
	x := f.free[n-1]
	f.free[n-1] = nil
	f.free = f.free[:n-1]
	return x
}

// Put returns a record to the list.
func (f *FreeList[T]) Put(x *T) { f.free = append(f.free, x) }
