package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"rubin/internal/sim"
)

// WriteChromeTrace writes the retained spans and samples as a Chrome
// trace-event JSON document (the format chrome://tracing and Perfetto
// load directly).
//
// Mapping: each run (sweep point) is a process whose name is the
// BeginRun label; each simulated node is a thread, numbered in order of
// first appearance; request-scoped spans are async begin/end pairs keyed
// by the request key, so the concurrent requests of one run nest as
// separate tracks; samples are counter events.
//
// The output is deterministic: events are emitted in insertion order (virtual
// time), thread ids depend only on event order, and timestamps are
// formatted with integer arithmetic — two runs of the same seed produce
// byte-identical files, which the CI determinism job diffs.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	e := &traceEmitter{bw: bw, tids: make(map[string]int)}
	if t != nil {
		// Name every run's process up front, then assign thread ids in
		// first-appearance order across both event streams.
		for i, label := range t.runs {
			e.meta(i+1, 0, "process_name", label)
		}
		for i := range t.spans.Len() {
			sp := t.spans.At(i)
			tid := e.tid(sp.Run, sp.Node)
			id := sp.Trace
			if id == "" {
				e.seq++
				id = "s" + strconv.Itoa(e.seq)
			}
			e.event(`{"name":%s,"cat":%s,"ph":"b","id":%s,"pid":%d,"tid":%d,"ts":%s}`,
				strconv.Quote(sp.Name), strconv.Quote(sp.Layer), strconv.Quote(id), sp.Run, tid, tsMicros(sp.Start))
			e.event(`{"name":%s,"cat":%s,"ph":"e","id":%s,"pid":%d,"tid":%d,"ts":%s}`,
				strconv.Quote(sp.Name), strconv.Quote(sp.Layer), strconv.Quote(id), sp.Run, tid, tsMicros(sp.End))
		}
		for i := range t.samples.Len() {
			s := t.samples.At(i)
			name := s.Name
			if s.Node != "" {
				name += "." + s.Node
			}
			e.event(`{"name":%s,"ph":"C","pid":%d,"tid":0,"ts":%s,"args":{"value":%s}}`,
				strconv.Quote(name), s.Run, tsMicros(s.At),
				strconv.FormatFloat(s.Value, 'g', -1, 64))
		}
	}
	if e.err != nil {
		return e.err
	}
	if _, err := bw.WriteString("]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// traceEmitter tracks the comma state, thread-id table and first error of
// one export.
type traceEmitter struct {
	bw    *bufio.Writer
	tids  map[string]int
	wrote bool
	seq   int
	err   error
}

// tid returns the thread id of (run, node), assigning ids in
// first-appearance order. Node "" (request-level spans) is thread 0.
func (e *traceEmitter) tid(run int, node string) int {
	if node == "" {
		return 0
	}
	key := strconv.Itoa(run) + "/" + node
	if id, ok := e.tids[key]; ok {
		return id
	}
	id := len(e.tids) + 1
	e.tids[key] = id
	e.meta(run, id, "thread_name", node)
	return id
}

func (e *traceEmitter) meta(pid, tid int, kind, name string) {
	e.event(`{"name":%s,"ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
		strconv.Quote(kind), pid, tid, strconv.Quote(name))
}

func (e *traceEmitter) event(format string, args ...any) {
	if e.err != nil {
		return
	}
	if e.wrote {
		if _, e.err = e.bw.WriteString(","); e.err != nil {
			return
		}
	}
	e.wrote = true
	_, e.err = fmt.Fprintf(e.bw, format, args...)
}

// tsMicros renders a virtual-nanosecond instant as the microseconds the
// trace format expects, using integer arithmetic so the text is exact
// (no float formatting in the determinism-diffed output).
func tsMicros(t sim.Time) string {
	return fmt.Sprintf("%d.%03d", t/1000, t%1000)
}
