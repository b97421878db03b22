// Package obs is the observability layer of the simulated stack: causal
// per-request tracing, latency attribution and time-series sampling, all
// on the deterministic virtual clock.
//
// Because every component runs on one sim.Loop, tracing here is perfectly
// reproducible: the same (code, seed, config) triple produces
// byte-identical span streams, so latency attribution can be diffed PR
// over PR exactly like the BENCH_*.json throughput files already are.
//
// The central type is Tracer. A nil *Tracer is the disabled state: every
// method nil-checks and returns immediately, so instrumented components
// guard their call sites (`if tr := node.Network().Tracer(); tr != nil`)
// and pay nothing — not even the request-key formatting — when
// observability is off. The tracer belongs to the simulated world
// (fabric.Network owns it), so whatever joins the world later — a
// restarted replica, a client added mid-run — is traced without anyone
// re-attaching it.
//
// A Tracer does two jobs:
//
//   - Latency attribution: per-request milestone marks (the Milestone
//     constants: arrive, invoke, leader receipt, proposal, read-serve,
//     commit, return) are folded by Finish into a strict phase partition
//     — queue, order, net — whose sum equals the end-to-end latency by
//     construction (milestones are clamped monotone, phases are the
//     gaps). The per-phase recorders feed the breakdown_* series of
//     experiments E8–E11.
//
//   - Span/counter recording (Options.Spans): finished requests emit a
//     span tree, components emit extra spans (msgnet send-queue waits,
//     the shard layer's 2PC phases) and samplers emit counter points,
//     all into fixed-size ring buffers exported as a Chrome trace-event
//     file (chrome://tracing, Perfetto) via WriteChromeTrace.
package obs

import (
	"rubin/internal/metrics"
	"rubin/internal/sim"
)

// DefaultSpanCap is the ring-buffer capacity used when Options.SpanCap is
// zero. When a run emits more spans (or samples) than this, the oldest
// are dropped — deterministically, since insertion order is virtual-time
// order.
const DefaultSpanCap = 1 << 16

// Options configures a Tracer.
type Options struct {
	// Spans retains span and counter events for Chrome-trace export. Off,
	// the tracer still aggregates the latency breakdown but stores no
	// per-event data beyond the in-flight milestone marks.
	Spans bool
	// SpanCap bounds the span and sample ring buffers (0 = DefaultSpanCap).
	SpanCap int
}

// Span is one completed interval on the virtual clock.
type Span struct {
	Run   int    // 1-based run (sweep point) index; 0 before any BeginRun
	Layer string // component tag: "client", "pbft", "msgnet", "reptor", ...
	Name  string // what happened, e.g. "order", "sendq bulk"
	Node  string // where it happened ("" = request-level, no single node)
	Trace string // request key this span belongs to ("" = standalone)
	Start sim.Time
	End   sim.Time
}

// Sample is one counter observation on the virtual clock.
type Sample struct {
	Run   int
	Name  string // counter name, e.g. "msgnet_queue_bytes"
	Node  string
	At    sim.Time
	Value float64
}

// Milestone is one per-request instant a component marks. The constants
// are declared in clamp order — Finish makes them monotone in exactly
// this order — and read-serve slots between propose and commit: for a
// fast-path read neither leader-recv, propose nor commit ever fire, so
// the clamped partition attributes the whole server-side interval to net
// plus the serve point, and the sum stays exact because the phases are
// still the gaps between monotone milestones.
type Milestone uint8

const (
	// Arrive: the operation entered the system — before the invoke when
	// it queued behind the user's previous operation (open loop).
	Arrive Milestone = iota
	// Invoke: the client submitted the request to the group.
	Invoke
	// LeaderRecv: the leader accepted the request for batching.
	LeaderRecv
	// Propose: the leader's proposal carrying this request left (after
	// the ordering-CPU service completed).
	Propose
	// ReadServe: the earliest replica answered a fast-path read
	// tentatively (no agreement round).
	ReadServe
	// Commit: the earliest replica committed and executed the request
	// (the instant its reply leaves).
	Commit
	// Return: the client accepted its F+1 reply quorum.
	Return
	numMilestones
)

// Phase names one latency recorder of a run: the three widths of the
// request-latency partition and their total, which Finish feeds, and the
// two 2PC waits the shard layer feeds through Record — each reported as
// its own series rather than a slice of the partition.
type Phase uint8

const (
	Queue Phase = iota
	Order
	Net
	Total
	// PrepareWait is the PREPARE phase of one cross-shard transaction:
	// dispatching the prepares until the last participant's vote quorum
	// lands at the coordinator.
	PrepareWait
	// CommitWait is its decision phase: broadcasting COMMIT/ABORT until
	// the last participant acknowledged applying it.
	CommitWait
	numPhases
)

// reqMarks holds the in-flight milestones of one request. Marks are
// first-wins: the simulation loop fires events in virtual-time order, so
// the first call (e.g. the first replica to commit) is the earliest.
type reqMarks struct {
	at  [numMilestones]sim.Time
	set uint8 // bit m: milestone m was marked
}

// Tracer collects milestone marks, spans and samples for one benchmark
// process. It is not safe for concurrent use — like everything else in
// the repository it lives on the single-threaded simulation loop.
type Tracer struct {
	spansOn bool

	marks      map[string]*reqMarks
	rec        [numPhases]metrics.Recorder
	readServed int

	runs    []string
	spans   *ring[Span]
	samples *ring[Sample]
}

// New creates an enabled tracer. The disabled state is a nil *Tracer, not
// an Options combination: nil is what makes the off path a true no-op.
func New(opts Options) *Tracer {
	t := &Tracer{spansOn: opts.Spans, marks: make(map[string]*reqMarks)}
	if opts.Spans {
		cap := opts.SpanCap
		if cap <= 0 {
			cap = DefaultSpanCap
		}
		t.spans = newRing[Span](cap)
		t.samples = newRing[Sample](cap)
	}
	return t
}

// SpansEnabled reports whether span/counter recording is on. Components
// use it to skip the bookkeeping (map writes, label formatting) that only
// exists to feed the exporter.
func (t *Tracer) SpansEnabled() bool { return t != nil && t.spansOn }

// BeginRun starts a new run (one sweep point of an experiment): it resets
// the breakdown aggregation and the in-flight marks, and gives subsequent
// spans and samples a fresh process id in the exported trace. The label
// becomes the process name in chrome://tracing.
func (t *Tracer) BeginRun(label string) {
	if t == nil {
		return
	}
	t.runs = append(t.runs, label)
	t.marks = make(map[string]*reqMarks)
	for p := range t.rec {
		t.rec[p].Reset()
	}
	t.readServed = 0
}

// run returns the current 1-based run index.
func (t *Tracer) run() int { return len(t.runs) }

// Mark records milestone m of the request named key, first call wins.
func (t *Tracer) Mark(m Milestone, key string, at sim.Time) {
	if t == nil {
		return
	}
	r := t.marks[key]
	if r == nil {
		r = &reqMarks{}
		t.marks[key] = r
	}
	if r.set&(1<<m) == 0 {
		r.at[m], r.set = at, r.set|1<<m
	}
}

// Finish finalizes one request: its milestones are clamped monotone
// (arrive <= invoke <= leader-recv <= propose <= read-serve <= commit <=
// return), folded into the breakdown recorders when the operation was
// measured, and — with span recording on — emitted as a span tree. The
// marks entry is dropped, so a long -trace run's memory stays bounded by
// the requests actually in flight. Finishing an unknown key is a no-op.
func (t *Tracer) Finish(key string, measured bool) {
	if t == nil {
		return
	}
	m := t.marks[key]
	if m == nil {
		return
	}
	delete(t.marks, key)
	if m.set&(1<<Arrive|1<<Invoke) == 0 {
		return // nothing client-side was ever marked; unattributable
	}
	// The monotone clamp: a milestone that was never observed (e.g. a
	// request re-proposed through a view change) or reads before its
	// predecessor collapses onto it, which is what makes the phase
	// partition sum exactly to the end-to-end latency.
	at := m.at
	floor := at[Arrive]
	if m.set&(1<<Arrive) == 0 {
		floor = at[Invoke]
	}
	for k := range at {
		if m.set&(1<<k) != 0 && at[k] > floor {
			floor = at[k]
		}
		at[k] = floor
	}
	a, i, s, p, rs, c, r := at[Arrive], at[Invoke], at[LeaderRecv], at[Propose], at[ReadServe], at[Commit], at[Return]
	if measured {
		t.rec[Queue].Record(i - a)
		t.rec[Order].Record(p - s)
		t.rec[Net].Record((s - i) + (c - p) + (r - c))
		t.rec[Total].Record(r - a)
		if m.set&(1<<ReadServe) != 0 {
			t.readServed++
		}
	}
	if !t.spansOn {
		return
	}
	run := t.run()
	t.spans.push(Span{Run: run, Layer: "client", Name: "request", Trace: key, Start: a, End: r})
	sub := []Span{
		{Layer: "client", Name: "queue", Start: a, End: i},
		{Layer: "msgnet", Name: "req-net", Start: i, End: s},
		{Layer: "pbft", Name: "order", Start: s, End: p},
		{Layer: "pbft", Name: "read-serve", Start: p, End: rs},
		{Layer: "pbft", Name: "agree", Start: rs, End: c},
		{Layer: "msgnet", Name: "reply-net", Start: c, End: r},
	}
	for _, sp := range sub {
		if sp.End > sp.Start {
			sp.Run, sp.Trace = run, key
			t.spans.push(sp)
		}
	}
}

// Span records one standalone interval (when span recording is on).
func (t *Tracer) Span(layer, name, node, trace string, start, end sim.Time) {
	if t == nil || !t.spansOn {
		return
	}
	t.spans.push(Span{Run: t.run(), Layer: layer, Name: name, Node: node, Trace: trace, Start: start, End: end})
}

// Sample records one counter observation (when span recording is on).
func (t *Tracer) Sample(name, node string, at sim.Time, value float64) {
	if t == nil || !t.spansOn {
		return
	}
	t.samples.push(Sample{Run: t.run(), Name: name, Node: node, At: at, Value: value})
}

// Record feeds one duration into a phase recorder — PrepareWait or
// CommitWait; Finish feeds the partition itself.
func (t *Tracer) Record(p Phase, d sim.Time) {
	if t == nil {
		return
	}
	t.rec[p].Record(d)
}

// Summary is the per-run latency attribution: mean widths of the phase
// partition over the measured requests. Queue+Order+Net == Total by
// construction (up to float rounding in downstream conversions).
type Summary struct {
	Count                    int
	Queue, Order, Net, Total sim.Time
	// Exec is always zero and never set: the cost model charges execution
	// CPU asynchronously (replies leave at the commit instant), so
	// execution is no slice of the partition. It stays because
	// benchmark/ reports it as obs.exec_us.
	Exec sim.Time
	// 2PC phase means of the shard layer's cross-shard transactions (zero
	// when the run commits nothing across shards): PREPARE dispatch to
	// vote quorum, and decision broadcast to applied acknowledgment.
	PrepareWait, CommitWait sim.Time
	TxnCount                int
	// FastCount is how many measured requests carried a read-serve
	// milestone — i.e. were answered by the agreement-bypassing read
	// fast path rather than the ordered pipeline.
	FastCount int
}

// Summary returns the breakdown means of the current run.
func (t *Tracer) Summary() Summary {
	if t == nil {
		return Summary{}
	}
	mean := func(p Phase) sim.Time { return t.rec[p].Mean() }
	return Summary{
		Count: t.rec[Total].Count(),
		Queue: mean(Queue), Order: mean(Order), Net: mean(Net), Total: mean(Total),
		PrepareWait: mean(PrepareWait), CommitWait: mean(CommitWait),
		TxnCount:  t.rec[PrepareWait].Count(),
		FastCount: t.readServed,
	}
}

// RunCount returns how many measurement runs recorded into this tracer.
func (t *Tracer) RunCount() int {
	if t == nil {
		return 0
	}
	return len(t.runs)
}

// SpanCount returns the spans currently retained (tests, export stats).
func (t *Tracer) SpanCount() int {
	if t == nil || t.spans == nil {
		return 0
	}
	return t.spans.len()
}

// SampleCount returns the samples currently retained.
func (t *Tracer) SampleCount() int {
	if t == nil || t.samples == nil {
		return 0
	}
	return t.samples.len()
}

// DroppedSpans returns how many spans the ring evicted.
func (t *Tracer) DroppedSpans() uint64 {
	if t == nil || t.spans == nil {
		return 0
	}
	return t.spans.dropped()
}
