package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rubin/internal/auth"
	"rubin/internal/chaos"
	"rubin/internal/kvstore"
	"rubin/internal/metrics"
	"rubin/internal/obs"
	"rubin/internal/pbft"
	"rubin/internal/sim"
	"rubin/internal/workload"
)

// maxHostSpans bounds the host spans kept in memory (obs.DefaultSpanCap
// bounds the virtual ones the same way). Per-call spans beyond it are
// dropped from the trace file and counted; the per-layer totals are
// accumulated separately and stay exact.
const maxHostSpans = 1 << 16

// hostSpan is one interval on the host clock, recorded from the
// benchmark's own files around a call into a layer.
type hostSpan struct {
	name       string
	parent     int           // index of the enclosing span, -1 at top level
	start, end time.Duration // since instruments.epoch
}

// callStat accumulates every call of one wrapped layer entry point.
type callStat struct {
	ns    int64
	calls int64
}

func (s callStat) meanNS() float64 {
	if s.calls == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.calls)
}

// instruments is everything the traced rep adds around the program under
// test: virtual spans (obs), host spans, the kvstore and invoker timing
// wrappers and the pbft hooks. A nil *instruments is the untraced rep:
// every method is then a no-op that hands back the unwrapped value.
type instruments struct {
	epoch   time.Time
	tracer  *obs.Tracer
	spans   []hostSpan
	dropped int
	open    int // the open top-level span, parent of per-call spans; -1 between phases
	run     int // the workload.Driver.Run span

	invoke, kvExec, kvRead, kvCheckpoint callStat

	// pbft, observed through OnExecute / OnCheckpointAdopt / OnRestart.
	sequences, requests int
	lagMax              uint64
	restartedAt         sim.Time
	recoveredAt         sim.Time
}

func newInstruments(label string) *instruments {
	in := &instruments{epoch: time.Now(), tracer: obs.New(obs.Options{Spans: true}), open: -1, run: -1}
	in.tracer.BeginRun(label)
	return in
}

func (in *instruments) begin(name string, parent int) int {
	if in == nil {
		return -1
	}
	in.spans = append(in.spans, hostSpan{name: name, parent: parent, start: time.Since(in.epoch), end: -1})
	id := len(in.spans) - 1
	if parent < 0 {
		in.open = id
	}
	return id
}

func (in *instruments) beginRun() int {
	if in == nil {
		return -1
	}
	in.run = in.begin("workload.Driver.Run", -1)
	return in.run
}

func (in *instruments) end(id int) {
	if in != nil && id >= 0 {
		in.spans[id].end = time.Since(in.epoch)
		if id == in.open {
			in.open = -1
		}
	}
}

// note closes one wrapped call that began at t0. Inside the run it adds
// to the layer's total (the oracles' Snapshot calls afterwards do not
// count as the run's kvstore time); everywhere it records a span under
// the open phase while room remains.
func (in *instruments) note(stat *callStat, name string, t0 time.Time) {
	now := time.Now()
	if in.open == in.run {
		stat.ns += int64(now.Sub(t0))
		stat.calls++
	}
	if len(in.spans) >= maxHostSpans {
		in.dropped++
		return
	}
	in.spans = append(in.spans, hostSpan{name: name, parent: in.open, start: t0.Sub(in.epoch), end: now.Sub(in.epoch)})
}

// timedStore times the application handed to pbft.NewCluster. It embeds
// *kvstore.Store so pbft.PartitionedState and pbft.TentativeReader stay
// satisfied — otherwise the run silently falls back to full-state
// transfer and never serves a tentative read.
type timedStore struct {
	*kvstore.Store
	in *instruments
}

var (
	_ pbft.PartitionedState = (*timedStore)(nil)
	_ pbft.TentativeReader  = (*timedStore)(nil)
)

func (s *timedStore) Execute(op []byte) []byte {
	t0 := time.Now()
	res := s.Store.Execute(op)
	s.in.note(&s.in.kvExec, "kvstore.Execute", t0)
	return res
}

func (s *timedStore) ExecuteReadOnly(op []byte) []byte {
	t0 := time.Now()
	res := s.Store.ExecuteReadOnly(op)
	s.in.note(&s.in.kvRead, "kvstore.ExecuteReadOnly", t0)
	return res
}

func (s *timedStore) Snapshot() auth.Digest {
	t0 := time.Now()
	d := s.Store.Snapshot()
	s.in.note(&s.in.kvCheckpoint, "kvstore.Snapshot", t0)
	return d
}

func (s *timedStore) CheckpointDelta(since uint64) []int {
	t0 := time.Now()
	d := s.Store.CheckpointDelta(since)
	s.in.note(&s.in.kvCheckpoint, "kvstore.CheckpointDelta", t0)
	return d
}

func (s *timedStore) MarshalPartition(part int) []byte {
	t0 := time.Now()
	b := s.Store.MarshalPartition(part)
	s.in.note(&s.in.kvCheckpoint, "kvstore.MarshalPartition", t0)
	return b
}

func (in *instruments) appFactory() func(int) pbft.Application {
	if in == nil {
		return func(int) pbft.Application { return kvstore.New() }
	}
	return func(int) pbft.Application { return &timedStore{Store: kvstore.New(), in: in} }
}

func (in *instruments) wrapInvoker(invoke workload.Invoker) workload.Invoker {
	if in == nil {
		return invoke
	}
	return func(conn int, op []byte, done func([]byte)) string {
		t0 := time.Now()
		key := invoke(conn, op, done)
		in.note(&in.invoke, "workload.invoke", t0)
		return key
	}
}

func (in *instruments) attachDriver(d *workload.Driver) {
	if in != nil {
		d.SetTracer(in.tracer)
	}
}

// attach turns the virtual spans on and installs the pbft hooks. The
// hooks only read: observation must not perturb the run, and the traced
// rep's virtual numbers are compared bit for bit to prove it did not.
func (in *instruments) attach(c *pbft.Cluster) {
	if in == nil {
		return
	}
	c.SetTracer(in.tracer)
	for i, rep := range c.Replicas {
		// Replica 1 is never crashed, so its OnExecute stream is the
		// group's executed-sequence count on every workload.
		count := i == 1
		rep.OnExecute(func(seq uint64, batch []pbft.Request) {
			if count {
				in.sequences++
				in.requests += len(batch)
			}
			in.observeLag(c)
		})
	}
	c.OnRestart = func(i int, rep *pbft.Replica) {
		in.restartedAt = c.Loop.Now()
		recovered := func(uint64) {
			if in.recoveredAt == 0 {
				in.recoveredAt = c.Loop.Now()
			}
		}
		rep.OnCheckpointAdopt(recovered)
		rep.OnExecute(func(seq uint64, _ []pbft.Request) {
			recovered(seq)
			in.observeLag(c)
		})
	}
}

// observeLag tracks how far the slowest replica's executed sequence
// trails the fastest; a crashed or catching-up replica is the slowest.
func (in *instruments) observeLag(c *pbft.Cluster) {
	lo, hi := c.Replicas[0].Executed(), c.Replicas[0].Executed()
	for _, rep := range c.Replicas[1:] {
		lo, hi = min(lo, rep.Executed()), max(hi, rep.Executed())
	}
	in.lagMax = max(in.lagMax, hi-lo)
}

// reportCluster reads every replicated layer's counters from outside
// once the run has drained.
func (in *instruments) reportCluster(out map[string]float64, sp spec, c *pbft.Cluster, clients []*pbft.Client,
	d *workload.Driver, sched *chaos.Schedule, runStart sim.Time) {
	ops := float64(d.Issued())
	hist := d.History().Ops()

	var sendErrs uint64
	for _, mesh := range c.Meshes {
		sendErrs += mesh.SendErrors()
	}
	out["msgnet.peak_queue_bytes"] = float64(c.PeakQueueBytes())
	out["msgnet.send_errors"] = float64(sendErrs)

	var cpBytes, retained, transfers, rejects, served, view uint64
	for _, rep := range c.Replicas {
		_, b := rep.CheckpointStats()
		cpBytes += b
		retained = max(retained, rep.RetainedStateBytes())
		transfers += rep.StateTransfers()
		rejects += rep.StateRejects()
		served += rep.StateBytesServed()
		view = max(view, rep.View())
	}
	checkpoints, _ := c.Replicas[1].CheckpointStats()
	out["pbft.sequences"] = float64(in.sequences)
	out["pbft.batch_mean"] = ratio(float64(in.requests), float64(in.sequences))
	out["pbft.checkpoints"] = float64(checkpoints)
	out["pbft.checkpoint_bytes_per_op"] = float64(cpBytes) / ops
	out["pbft.retained_state_bytes"] = float64(retained)
	out["pbft.send_faults"] = float64(c.SendFaults())
	out["pbft.view_changes"] = float64(view)
	out["pbft.state_transfers"] = float64(transfers)
	out["pbft.state_rejects"] = float64(rejects)
	out["pbft.state_bytes_served"] = float64(served)
	out["pbft.executed_lag_max"] = float64(in.lagMax)
	if sp.crash {
		// Time without service: from the crash to the first request
		// that arrived after it and was served. (Requests in flight at
		// the crash still complete: the backups had their pre-prepares.)
		crash := runStart + crashAt
		for i := range hist { // completion order
			if hist[i].Arrive > crash {
				out["pbft.outage_us"] = (hist[i].Return - crash).Micros()
				break
			}
		}
		out["pbft.recovery_us"] = (in.recoveredAt - in.restartedAt).Micros()
	}
	var fast, fallbacks uint64
	for _, cl := range clients {
		fast += cl.FastReads()
		fallbacks += cl.FastReadFallbacks()
	}
	out["pbft.fast_read_share"] = float64(fast) / ops
	out["pbft.fast_read_fallback_share"] = ratio(float64(fallbacks), float64(fast+fallbacks))

	lag := metrics.NewRecorder()
	for i := range hist {
		lag.Record(hist[i].Invoke - hist[i].Arrive)
	}
	out["workload.generator_lag_p99_us"] = lag.Percentile(99).Micros()
	out["workload.history_ops"] = float64(len(hist))

	if sched != nil {
		out["chaos.events_applied"] = float64(len(sched.Trace()))
		if sched.Err() != nil {
			out["chaos.schedule_errors"] = 1
		}
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// reportSelf writes what the instruments measured themselves: wrapper
// totals, the obs latency breakdown and the span counts.
func (in *instruments) reportSelf(out map[string]float64, r rep) {
	ops, runNS := float64(r.ops()), r.runS*1e9
	kv := in.kvExec.ns + in.kvRead.ns + in.kvCheckpoint.ns
	out["kvstore.execute_host_ns"] = in.kvExec.meanNS()
	out["kvstore.execute_calls_per_op"] = float64(in.kvExec.calls) / ops
	out["kvstore.read_only_host_ns"] = in.kvRead.meanNS()
	out["kvstore.checkpoint_host_ms"] = float64(in.kvCheckpoint.ns) / 1e6
	out["kvstore.host_share"] = float64(kv) / runNS
	out["workload.invoke_host_ns"] = in.invoke.meanNS()
	out["host.run_self_share"] = 1 - float64(kv+in.invoke.ns)/runNS

	s := in.tracer.Summary()
	out["obs.queue_us"] = s.Queue.Micros()
	out["obs.order_us"] = s.Order.Micros()
	out["obs.net_us"] = s.Net.Micros()
	out["obs.exec_us"] = s.Exec.Micros()
	out["obs.spans"] = float64(in.tracer.SpanCount() + len(in.spans))
	out["obs.dropped_spans"] = float64(in.tracer.DroppedSpans()) + float64(in.dropped)
}

// writeTrace writes host spans and virtual spans as two processes of one
// Chrome trace (chrome://tracing and Perfetto load it directly). Host
// spans carry their self time — duration minus the children's — in args.
func (in *instruments) writeTrace(dir, workloadName string) (string, error) {
	var virt bytes.Buffer
	if err := in.tracer.WriteChromeTrace(&virt); err != nil {
		return "", err
	}
	var doc struct {
		DisplayTimeUnit string            `json:"displayTimeUnit"`
		TraceEvents     []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(virt.Bytes(), &doc); err != nil {
		return "", fmt.Errorf("obs trace: %w", err)
	}
	const hostPID = 1000 // obs numbers its processes from 1
	self := make([]time.Duration, len(in.spans))
	for i, sp := range in.spans {
		self[i] += sp.end - sp.start
		if sp.parent >= 0 {
			self[sp.parent] -= sp.end - sp.start
		}
	}
	add := func(format string, args ...any) {
		doc.TraceEvents = append(doc.TraceEvents, json.RawMessage(fmt.Sprintf(format, args...)))
	}
	add(`{"name":"process_name","ph":"M","pid":%d,"tid":0,"args":{"name":"host clock: %s"}}`, hostPID, workloadName)
	for i, sp := range in.spans {
		add(`{"name":%q,"cat":"host","ph":"X","pid":%d,"tid":0,"ts":%.3f,"dur":%.3f,"args":{"self_us":%.3f,"parent":%d,"id":%d}}`,
			sp.name, hostPID, micros(sp.start), micros(sp.end-sp.start), micros(self[i]), sp.parent, i)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workloadName+".trace.json")
	raw, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, raw, 0o644)
}

func micros(d time.Duration) float64 { return float64(d) / 1e3 }
