// Package workload generates deterministic client traffic for the
// replicated experiments: skewed key distributions (uniform, Zipf),
// mixed operation types (reads, writes, deletes, scans),
// closed- and open-loop arrival models (per-user windows, Poisson,
// on/off bursts), and a driver that multiplexes thousands of logical
// users over a bounded pool of client connections.
//
// Every operation is recorded into a History whose per-key register
// linearizability can be checked after the run (History.CheckLinearizable)
// — a workload run is also a correctness proof, not only a load curve.
//
// All randomness is drawn from a private source seeded by Config.Seed
// and all timing from the simulation loop, so a given (code, seed,
// config) triple reproduces byte-identical histories and latency
// distributions.
package workload

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"rubin/internal/kvstore"
	"rubin/internal/metrics"
	"rubin/internal/obs"
	"rubin/internal/sim"
)

// Invoker submits one encoded kvstore operation through connection slot
// conn (0 <= conn < Config.Conns). Systems that shard the request space
// derive the routing key(s) from the operation itself via kvstore.OpKeys
// — the shard router, which fronts shards and COP groups, does — so the
// driver does not pass routing hints. done must fire exactly once with the
// reply. op is lent until done fires: the driver encodes the user's next
// operation into the same buffer. The return value is the submitted
// request's trace id (pbft request key) for the observability layer — ""
// when the system does not trace.
type Invoker func(conn int, op []byte, done func(result []byte)) string

// Config parameterizes one workload run.
type Config struct {
	// Users is the number of logical users (sessions). Each user is a
	// sequential process: up to Arrival.Window operations in flight in
	// closed loop, exactly one in open loop — open-loop arrivals a busy
	// user cannot serve yet queue behind it, and that queueing delay
	// counts into the measured latency, so the load never quietly
	// coordinates with the system's speed.
	Users int
	// Conns is the size of the client-connection pool the users are
	// multiplexed over: user u submits through connection u % Conns.
	Conns int
	// Ops is the number of measured operations; Warmup operations run
	// before them unmeasured. Both are recorded into the history — the
	// correctness check covers everything.
	Ops, Warmup int
	// Keys picks the key of each operation.
	Keys KeyChooser
	// Mix picks the operation type.
	Mix Mix
	// Arrival is the arrival model.
	Arrival Arrival
	// ValueSize pads written values up to this many bytes. Values keep a
	// unique "u<user>.<seq>" stem regardless, so every write in the
	// history is distinguishable; the history keeps only the stem.
	ValueSize int
	// TxnPick chooses the two distinct keys of a multi-key transaction.
	// The bench layer injects a picker here to control the share of
	// transactions whose keys land on different shards. Nil draws both
	// keys from Keys (re-drawing the second until it differs).
	TxnPick func(r *rand.Rand) (a, b string)
	// Seed seeds the workload's private random source.
	Seed int64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Users < 1 {
		return fmt.Errorf("workload: need at least one user, got %d", c.Users)
	}
	if c.Conns < 1 {
		return fmt.Errorf("workload: need at least one connection, got %d", c.Conns)
	}
	if c.Ops < 1 || c.Warmup < 0 {
		return fmt.Errorf("workload: need Ops >= 1 and Warmup >= 0, got %d/%d", c.Ops, c.Warmup)
	}
	if c.Keys == nil || c.Keys.Keys() < 1 {
		return fmt.Errorf("workload: missing key distribution")
	}
	if c.ValueSize < 0 {
		return fmt.Errorf("workload: negative ValueSize %d", c.ValueSize)
	}
	if err := c.Mix.Validate(); err != nil {
		return err
	}
	return c.Arrival.Validate()
}

// scanLimit caps the pairs one scan returns.
const scanLimit = 16

// Driver runs one workload configuration against an Invoker on the
// simulation loop, recording every operation.
type Driver struct {
	loop   *sim.Loop
	cfg    Config
	invoke Invoker
	rng    *rand.Rand
	hist   *History
	rec    *metrics.Recorder
	tracer *obs.Tracer

	// NotePath's last verdict, for the operation traced as notedID.
	notedID   string
	notedFast bool

	// Made by Run: the operation slots, Window per user in closed loop
	// (user u's at u*Window) and one in open loop; KeyName by key index.
	flights  []flight
	keyNames []string
	value    []byte          // the padded value of the write being encoded
	stems    strings.Builder // the storage stems are carved from (keep)

	total           int
	issued          int
	completed       int
	measured        int
	aborted         int
	abortedMeasured int
	started         bool
	startAt         sim.Time
	endAt           sim.Time

	// The open-loop arrival stream.
	clock    arrivalClock
	onArrive func() // arrive, bound once
	arrivals int    // armed so far
}

// flight is a user's operation slot: the operation in flight and callbacks
// bound once, like pbft's onProgress, so completions and think times allocate nothing.
type flight struct {
	d       *Driver
	user    int
	seq     int  // of the operation last issued
	busy    bool // it has not completed
	op      Op
	raw     []byte // the operation's encoding, lent to the Invoker until done
	traceID string
	queued  sim.Queue[sim.Time] // open loop: arrivals waiting behind it
	done    func([]byte)        // complete, bound once
	next    func()              // issueNext, bound once
}

// issueNext issues the slot's next closed-loop operation.
func (f *flight) issueNext() {
	if f.d.issued < f.d.total {
		f.d.issue(f, f.d.loop.Now())
	}
}

// New validates the configuration and prepares a driver; Run executes it.
func New(loop *sim.Loop, cfg Config, invoke Invoker) (*Driver, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if invoke == nil {
		return nil, fmt.Errorf("workload: nil invoker")
	}
	return &Driver{
		loop: loop, cfg: cfg, invoke: invoke,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		hist:  &History{},
		rec:   metrics.NewRecorder(),
		total: cfg.Ops + cfg.Warmup,
	}, nil
}

// Run drives the workload to completion (it runs the loop until the
// event queue drains) and errors if any operation never finished.
func (d *Driver) Run() error {
	closed, per := d.cfg.Arrival.Model == ModelClosed, 1
	if closed {
		per = d.cfg.Arrival.Window
	}
	d.flights = make([]flight, d.cfg.Users*per)
	for i := range d.flights {
		f := &d.flights[i]
		f.d, f.user = d, i/per
		f.done, f.next = f.complete, f.issueNext
	}
	d.keyNames = make([]string, d.cfg.Keys.Keys())
	d.hist.ops = slices.Grow(d.hist.ops, d.total)
	d.rec.Grow(d.cfg.Ops)
	if closed {
		// Each user's window starts at once, each completion refills it.
		for u := 0; u < d.cfg.Users; u++ {
			window := d.flights[u*per : (u+1)*per]
			d.loop.Post(func() {
				for i := range window {
					window[i].issueNext()
				}
			})
		}
	} else {
		d.clock, d.onArrive = arrivalClock{a: d.cfg.Arrival}, d.arrive
		d.arrive()
	}
	d.loop.Run()
	if d.completed != d.total {
		return fmt.Errorf("workload: completed %d of %d operations", d.completed, d.total)
	}
	return nil
}

// arrive assigns an open-loop arrival (none when Run starts the stream) to
// the next user round-robin, then arms the next: one event at a time.
func (d *Driver) arrive() {
	if d.arrivals > 0 {
		f := &d.flights[(d.arrivals-1)%d.cfg.Users]
		if f.busy {
			f.queued.Push(d.loop.Now())
		} else {
			d.issue(f, d.loop.Now())
		}
	}
	if d.arrivals < d.total {
		d.arrivals++
		d.loop.After(d.clock.gap(d.rng), d.onArrive)
	}
}

// issue builds and submits one operation in a flight. arrive is when the
// operation entered the system — before now when it queued behind the
// user's previous operation.
func (d *Driver) issue(f *flight, arrive sim.Time) {
	seq := d.issued
	d.issued++
	measured := seq >= d.cfg.Warmup
	if measured && !d.started {
		d.started, d.startAt = true, arrive
	}
	f.seq, f.busy = seq, true
	kind := d.cfg.Mix.Pick(d.rng)
	key := d.keyName(d.cfg.Keys.Pick(d.rng))
	f.op = Op{User: f.user, Kind: kind, Key: key, Arrive: arrive, Measured: measured}
	rec := &f.op
	raw := f.raw[:0]
	switch kind {
	case Read:
		raw = kvstore.AppendOp(raw, kvstore.OpGet, key, "")
	case Write:
		rec.Value = d.writeStem(f.user, seq, -1)
		raw = kvstore.AppendOp(raw, kvstore.OpPut, key, d.padded(rec.Value))
	case Delete:
		raw = kvstore.AppendOp(raw, kvstore.OpDelete, key, "")
	case Scan:
		// Scan the run of up to ten adjacent keys sharing the prefix.
		rec.Key = key[:len(key)-1]
		raw = kvstore.AppendOp(raw, kvstore.OpScan, rec.Key, strconv.Itoa(scanLimit))
	case Txn:
		raw = d.buildTxn(rec, f.user, seq)
	}
	f.raw = raw
	invoke := d.loop.Now()
	rec.Invoke = invoke
	f.traceID = ""
	traceID := d.invoke(f.user%d.cfg.Conns, raw, f.done)
	if f.busy && f.seq == seq { // not answered at once (a refused operation)
		f.traceID = traceID
	}
	if d.tracer != nil && traceID != "" {
		d.tracer.Mark(obs.Arrive, traceID, arrive)
		d.tracer.Mark(obs.Invoke, traceID, invoke)
	}
}

// keyName is KeyName memoised per key index.
func (d *Driver) keyName(i int) string {
	if d.keyNames[i] == "" {
		d.keyNames[i] = KeyName(i)
	}
	return d.keyNames[i]
}

// buildTxn fills in one multi-key transaction — half the draws write two
// keys atomically, half read two keys atomically — and returns its
// encoded one-phase form. A router splits it into PREPARE/COMMIT when
// the keys span shards.
func (d *Driver) buildTxn(rec *Op, user, seq int) []byte {
	a, b := d.txnKeys()
	id := fmt.Sprintf("t%d.%d", user, seq)
	rec.Key = id
	var subs []kvstore.TxnSub
	if d.rng.Intn(2) == 0 {
		va, vb := d.writeStem(user, seq, 0), d.writeStem(user, seq, 1)
		rec.Sub = []SubOp{{Kind: Write, Key: a, Value: va}, {Kind: Write, Key: b, Value: vb}}
		pa := string(d.padded(va)) // the scratch holds one value at a time
		subs = []kvstore.TxnSub{{Code: kvstore.OpPut, Key: a, Value: pa}, {Code: kvstore.OpPut, Key: b, Value: string(d.padded(vb))}}
	} else {
		rec.Sub = []SubOp{{Kind: Read, Key: a}, {Kind: Read, Key: b}}
		subs = []kvstore.TxnSub{{Code: kvstore.OpGet, Key: a}, {Code: kvstore.OpGet, Key: b}}
	}
	return kvstore.EncodeTxn(id, subs)
}

// txnKeys draws the two distinct keys of a transaction.
func (d *Driver) txnKeys() (string, string) {
	if d.cfg.TxnPick != nil {
		return d.cfg.TxnPick(d.rng)
	}
	a := d.cfg.Keys.Pick(d.rng)
	b := d.cfg.Keys.Pick(d.rng)
	for tries := 0; b == a && tries < 16; tries++ {
		b = d.cfg.Keys.Pick(d.rng)
	}
	if b == a {
		b = (a + 1) % d.cfg.Keys.Keys()
	}
	return d.keyName(a), d.keyName(b)
}

// complete records the slot's finished operation and schedules the user's
// next work according to the arrival model.
func (f *flight) complete(res []byte) {
	d, rec, traceID := f.d, &f.op, f.traceID
	ret := d.loop.Now()
	measured := rec.Measured
	if d.tracer != nil && traceID != "" {
		d.tracer.Mark(obs.Return, traceID, ret)
		d.tracer.Finish(traceID, measured)
	}
	rec.Return = ret
	if traceID != "" && traceID == d.notedID {
		rec.Fast = d.notedFast
	}
	d.normalize(rec, res)
	d.hist.Add(*rec)
	d.completed++
	if rec.Kind == Txn && rec.Result != Committed {
		d.aborted++
		if measured {
			d.abortedMeasured++
		}
	}
	if measured {
		d.measured++
		d.rec.Record(ret - rec.Arrive)
		if ret > d.endAt {
			d.endAt = ret
		}
	}
	f.busy = false
	if d.cfg.Arrival.Model == ModelClosed {
		if d.issued < d.total {
			d.loop.After(d.cfg.Arrival.Think, f.next)
		}
		return
	}
	if f.queued.Len() > 0 {
		d.issue(f, f.queued.Pop())
	}
}

// writeStem returns the unique stem of one write's value: what the history
// records as the value written. sub is the sub-operation index inside a
// transaction (-1 for a plain write); the stem stays unique across both
// forms because no stem is another stem followed by padding dots.
func (d *Driver) writeStem(user, seq, sub int) string {
	var scratch [64]byte // holds any stem
	stem := strconv.AppendInt(append(scratch[:0], 'u'), int64(user), 10)
	stem = strconv.AppendInt(append(stem, '.'), int64(seq), 10)
	if sub >= 0 {
		stem = strconv.AppendInt(append(stem, '.'), int64(sub), 10)
	}
	return d.keep(stem)
}

// stemChunk is the size of the storage the history's stems are carved
// from: one allocation holds a few hundred of them.
const stemChunk = 4 << 10

// keep returns stem as a string carved from the driver's stem storage. A
// strings.Builder never rewrites bytes it has handed out, so the stems
// share its backing until it is full and a new one is started.
func (d *Driver) keep(stem []byte) string {
	if d.stems.Cap()-d.stems.Len() < len(stem) {
		d.stems = strings.Builder{}
		d.stems.Grow(max(stemChunk, len(stem)))
	}
	start := d.stems.Len()
	d.stems.Write(stem)
	return d.stems.String()[start:]
}

// padded returns the value a write with the given stem stores: the stem,
// then dots up to ValueSize. It is the driver's scratch, valid until the
// next call, so a write's value costs no allocation of its own.
func (d *Driver) padded(stem string) []byte {
	v := append(d.value[:0], stem...)
	for len(v) < d.cfg.ValueSize {
		v = append(v, padding[:min(d.cfg.ValueSize-len(v), len(padding))]...)
	}
	d.value = v
	return v
}

const padding = "................................................................"

// unpadded marks a read's reply that is not a value the driver writes. It
// holds a NUL byte, so no stem — nor any other observation — equals a
// marked reply.
const unpadded = "\x00reply:"

// normalize maps a kvstore reply onto the observation the history
// records: reads record the stem of the value seen (Absent for a missing
// key), deletes record Found/NotFound, transactions record their outcome
// plus per-sub read observations, writes and scans record nothing the
// checker uses. Unexpected replies are recorded verbatim so they surface as
// correctness violations rather than vanishing. A reply becomes a string
// only where the history keeps it.
func (d *Driver) normalize(rec *Op, res []byte) {
	switch rec.Kind {
	case Read:
		rec.Result = d.observed(res)
	case Delete:
		switch string(res) {
		case "OK":
			rec.Result = Found
		case "NOTFOUND":
			rec.Result = NotFound
		default:
			rec.Result = string(res)
		}
	case Txn:
		status, results, err := kvstore.DecodeTxnResult(res)
		switch {
		case err == nil && status == kvstore.TxnCommitted && len(results) == len(rec.Sub):
			rec.Result = Committed
			for i := range rec.Sub {
				if rec.Sub[i].Kind == Read {
					rec.Sub[i].Result = d.observed(results[i])
				}
			}
		case err == nil && status == kvstore.TxnAborted:
			rec.Result = Aborted
		default:
			rec.Result = string(res)
		}
	}
}

// observed is what a read records: Absent for a missing key; a stem when
// res is byte for byte that stem padded as a write pads it, so a read
// matches a write exactly when it returned the bytes that write stored;
// anything else verbatim, marked unpadded.
func (d *Driver) observed(res []byte) string {
	if string(res) == "NOTFOUND" {
		return Absent
	}
	stem := bytes.TrimRight(res, ".")
	if len(stem) > 0 && len(res) == max(len(stem), d.cfg.ValueSize) {
		return d.keep(stem)
	}
	return unpadded + string(res)
}

// NotePath records which path served the operation traced as traceID:
// fast (accepted on 2F+1 matching tentative replies) or ordered. Client
// stacks with the read fast path enabled call it immediately before the
// operation's done callback, so the verdict is in place when complete()
// records the operation into the history.
func (d *Driver) NotePath(traceID string, fast bool) { d.notedID, d.notedFast = traceID, fast }

// SetTracer attaches an observability tracer: each operation's arrival,
// invocation and return are marked under the trace id its Invoker
// returns, and Finish folds them into the latency breakdown. Call before
// Run; a nil tracer (the default) disables marking.
func (d *Driver) SetTracer(t *obs.Tracer) { d.tracer = t }

// History returns the complete operation record of the run.
func (d *Driver) History() *History { return d.hist }

// Latencies returns the recorder holding measured-operation latencies
// (arrival to reply, so open-loop queueing is included).
func (d *Driver) Latencies() *metrics.Recorder { return d.rec }

// Issued returns how many operations have been submitted.
func (d *Driver) Issued() int { return d.issued }

// Completed returns how many operations have finished.
func (d *Driver) Completed() int { return d.completed }

// MeasuredSpan returns the measured window: the arrival of the first
// measured operation and the completion of the last.
func (d *Driver) MeasuredSpan() (start, end sim.Time) { return d.startAt, d.endAt }

// Goodput returns completed measured operations per second over the
// measured span — under open-loop overload this falls below the offered
// rate, which is exactly the signal the E9 curves plot.
func (d *Driver) Goodput() float64 {
	return metrics.Throughput(d.measured, d.endAt-d.startAt)
}

// Aborted returns how many transactions finished aborted (or
// unresolved) — their effects never became visible, so they do not
// count as useful work.
func (d *Driver) Aborted() int { return d.aborted }

// CommittedGoodput returns measured operations per second excluding
// aborted transactions — the committed (useful) throughput the E10
// scaling curves plot.
func (d *Driver) CommittedGoodput() float64 {
	return metrics.Throughput(d.measured-d.abortedMeasured, d.endAt-d.startAt)
}
