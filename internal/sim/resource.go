package sim

// Resource models a k-server FIFO service station on the simulation loop,
// e.g. a CPU with k cores, a NIC processing engine, or one direction of a
// network link. Work is submitted with Acquire(kind, serviceTime, done): it
// is served in submission order as servers free up, and done runs at the
// virtual instant the work completes.
//
// Resources are how the simulator charges time: instead of sleeping, a
// component acquires its CPU or NIC for the modeled duration of an
// operation. Contention and queueing then emerge naturally under load.
type Resource struct {
	loop *Loop
	name string

	// busyUntil holds the next-free instant of each server, unsorted;
	// Acquire picks the earliest-free server deterministically (lowest
	// index wins ties).
	busyUntil []Time

	// Statistics.
	jobs uint64
	busy Busy
}

// Kind names what a charge pays for: a syscall, a verbs post, a MAC. Package
// model names the values, beside the costs they price; a Resource only
// keeps one busy total per kind.
type Kind uint8

// Kinds is how many kinds a Resource tells apart: every kind is below it.
const Kinds = 18

// Busy is a resource's cumulative service time per kind.
type Busy [Kinds]Time

// Total returns the service time of every kind together.
func (b Busy) Total() Time {
	var t Time
	for _, d := range b {
		t += d
	}
	return t
}

// NewResource creates a resource with the given number of parallel servers.
// servers must be at least 1.
func NewResource(loop *Loop, name string, servers int) *Resource {
	if servers < 1 {
		panic("sim: NewResource needs at least one server")
	}
	return &Resource{loop: loop, name: name, busyUntil: make([]Time, servers)}
}

// Acquire enqueues a job of the given kind and service time and returns the
// virtual time at which it will complete. If done is non-nil it is scheduled
// to run at that completion instant. Service is FIFO per call order: a job
// starts at max(now, earliest server free time).
func (r *Resource) Acquire(kind Kind, service Time, done func()) Time {
	if service < 0 {
		service = 0
	}
	now := r.loop.Now()
	best := 0
	for i := 1; i < len(r.busyUntil); i++ {
		if r.busyUntil[i] < r.busyUntil[best] {
			best = i
		}
	}
	start := r.busyUntil[best]
	if start < now {
		start = now
	}
	finish := start + service
	r.busyUntil[best] = finish
	r.jobs++
	r.busy[kind] += service
	if done != nil {
		r.loop.At(finish, done)
	}
	return finish
}

// Delay is a convenience for charging time without a completion callback.
func (r *Resource) Delay(kind Kind, service Time) Time { return r.Acquire(kind, service, nil) }

// BusyTotal returns the cumulative service time charged to this resource.
func (r *Resource) BusyTotal() Time { return r.busy.Total() }

// Snapshot returns the cumulative service time charged to this resource, per
// kind.
func (r *Resource) Snapshot() Busy { return r.busy }

// Served returns the service time this resource has delivered by now: the
// busy time charged to it, less the work its servers still have ahead of
// them. A server serves its jobs back to back from the instant it takes
// one, so what lies ahead of it is exactly the time until it is free.
func (r *Resource) Served() Time {
	now, t := r.loop.Now(), r.BusyTotal()
	for _, free := range r.busyUntil {
		if free > now {
			t -= free - now
		}
	}
	return t
}

// Servers returns how many jobs the resource serves at once.
func (r *Resource) Servers() int { return len(r.busyUntil) }
