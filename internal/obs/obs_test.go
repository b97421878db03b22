package obs

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"testing"

	"rubin/internal/sim"
)

// A nil tracer must be safe to call through every method — that is the
// disabled state the hot path relies on.
func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	tr.BeginRun("x")
	tr.Mark(Arrive, "k", 1)
	tr.Mark(Invoke, "k", 2)
	tr.Mark(LeaderRecv, "k", 3)
	tr.Mark(Propose, "k", 4)
	tr.Mark(Commit, "k", 5)
	tr.Mark(Return, "k", 6)
	tr.Finish("k", true)
	tr.Span("l", "n", "node", "", 1, 2)
	tr.Sample("c", "node", 1, 2)
	tr.Record(PrepareWait, 7)
	if tr.SpansEnabled() {
		t.Fatal("nil tracer reports spans enabled")
	}
	if s := tr.Summary(); s.Count != 0 || s.Total != 0 {
		t.Fatalf("nil tracer summary not zero: %+v", s)
	}
	if tr.SpanCount() != 0 || tr.SampleCount() != 0 || tr.DroppedSpans() != 0 {
		t.Fatal("nil tracer reports retained events")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil export: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("nil export is not valid JSON: %s", buf.String())
	}
}

// The phase partition must sum exactly to the end-to-end latency.
func TestBreakdownPartitionSums(t *testing.T) {
	tr := New(Options{})
	tr.BeginRun("run")
	mark := func(key string, a, i, s, p, c, r sim.Time) {
		tr.Mark(Arrive, key, a)
		tr.Mark(Invoke, key, i)
		tr.Mark(LeaderRecv, key, s)
		tr.Mark(Propose, key, p)
		tr.Mark(Commit, key, c)
		tr.Mark(Return, key, r)
		tr.Finish(key, true)
	}
	mark("a", 0, 10, 30, 70, 150, 310)
	mark("b", 5, 5, 45, 125, 285, 605)
	s := tr.Summary()
	if s.Count != 2 {
		t.Fatalf("count = %d, want 2", s.Count)
	}
	if got := s.Queue + s.Order + s.Net; got != s.Total {
		t.Fatalf("phase sum %d != total %d", got, s.Total)
	}
	// Request a: queue 10, order 40, net 20+80+160=260, total 310.
	// Request b: queue 0, order 80, net 40+160+320=520, total 600.
	if s.Queue != 5 || s.Order != 60 || s.Net != 390 || s.Total != 455 {
		t.Fatalf("unexpected means: %+v", s)
	}
}

// Missing milestones clamp onto their predecessor so the partition still
// sums to the end-to-end latency.
func TestFinishClampsMissingAndRetrogradeMarks(t *testing.T) {
	tr := New(Options{})
	tr.BeginRun("run")
	// No leader-recv/propose marks (e.g. lost through a view change), and
	// a commit mark that sits before invoke (impossible, but the clamp
	// must still hold the ordering).
	tr.Mark(Arrive, "k", 100)
	tr.Mark(Invoke, "k", 120)
	tr.Mark(Commit, "k", 50)
	tr.Mark(Return, "k", 200)
	tr.Finish("k", true)
	s := tr.Summary()
	if s.Total != 100 {
		t.Fatalf("total = %d, want 100", s.Total)
	}
	if got := s.Queue + s.Order + s.Net; got != s.Total {
		t.Fatalf("phase sum %d != total %d", got, s.Total)
	}
	if s.Queue != 20 || s.Net != 80 {
		t.Fatalf("clamped breakdown wrong: %+v", s)
	}
}

func TestFinishUnknownKeyAndUnmeasured(t *testing.T) {
	tr := New(Options{})
	tr.BeginRun("run")
	tr.Finish("never-marked", true) // must not panic or record
	tr.Mark(Arrive, "warm", 0)
	tr.Mark(Return, "warm", 10)
	tr.Finish("warm", false) // warmup: marks consumed, nothing recorded
	if s := tr.Summary(); s.Count != 0 {
		t.Fatalf("unmeasured finish recorded: %+v", s)
	}
	// The marks entry is gone: re-finishing is a no-op.
	tr.Finish("warm", true)
	if s := tr.Summary(); s.Count != 0 {
		t.Fatalf("stale finish recorded: %+v", s)
	}
}

func TestBeginRunResetsAggregation(t *testing.T) {
	tr := New(Options{})
	tr.BeginRun("one")
	tr.Mark(Arrive, "k", 0)
	tr.Mark(Return, "k", 100)
	tr.Finish("k", true)
	tr.Record(PrepareWait, 50)
	tr.BeginRun("two")
	if s := tr.Summary(); s.Count != 0 || s.TxnCount != 0 {
		t.Fatalf("BeginRun did not reset: %+v", s)
	}
}

func TestRingOverflowDropsOldest(t *testing.T) {
	r := newRing[int](3)
	for i := 1; i <= 5; i++ {
		r.push(i)
	}
	if r.len() != 3 || r.dropped() != 2 {
		t.Fatalf("len=%d dropped=%d, want 3/2", r.len(), r.dropped())
	}
	var got []int
	r.each(func(v int) { got = append(got, v) })
	if len(got) != 3 || got[0] != 3 || got[1] != 4 || got[2] != 5 {
		t.Fatalf("retained %v, want [3 4 5]", got)
	}
}

func TestTracerSpanCapOverflow(t *testing.T) {
	tr := New(Options{Spans: true, SpanCap: 4})
	tr.BeginRun("run")
	for i := 0; i < 10; i++ {
		tr.Span("l", "s", "n", "", sim.Time(i), sim.Time(i+1))
	}
	if tr.SpanCount() != 4 || tr.DroppedSpans() != 6 {
		t.Fatalf("spans=%d dropped=%d, want 4/6", tr.SpanCount(), tr.DroppedSpans())
	}
}

// Samplers must not keep the loop alive: once only sampler ticks remain,
// every sampler declines to re-arm and the loop drains — including with
// two samplers that could otherwise sustain each other.
func TestSamplerGroupTerminates(t *testing.T) {
	loop := sim.NewLoop(1)
	g := NewSamplerGroup(loop)
	var a, b int
	g.Every(10, func(sim.Time) { a++ })
	g.Every(15, func(sim.Time) { b++ })
	// Real work until t=100.
	var work func()
	step := 0
	work = func() {
		step++
		if step < 10 {
			loop.After(10, work)
		}
	}
	loop.After(10, work)
	loop.Run()
	if loop.Pending() != 0 {
		t.Fatalf("loop still has %d events", loop.Pending())
	}
	if a < 9 || b < 6 {
		t.Fatalf("samplers under-fired: a=%d b=%d", a, b)
	}
	if loop.Now() > 200 {
		t.Fatalf("samplers overstayed: now=%v", loop.Now())
	}
}

// The exported trace must be stable byte-for-byte across identical runs
// and be valid JSON.
func TestChromeTraceDeterministicAndValid(t *testing.T) {
	build := func() []byte {
		tr := New(Options{Spans: true})
		tr.BeginRun("point-1")
		tr.Mark(Arrive, "1/1", 1000)
		tr.Mark(Invoke, "1/1", 1500)
		tr.Mark(LeaderRecv, "1/1", 2500)
		tr.Mark(Propose, "1/1", 4000)
		tr.Mark(Commit, "1/1", 9000)
		tr.Mark(Return, "1/1", 12345)
		tr.Finish("1/1", true)
		tr.Span("msgnet", "sendq bulk", "r0->r1", "", 2000, 2400)
		tr.Sample("msgnet_queue_bytes", "r0", 5000, 4096)
		tr.BeginRun("point-2")
		tr.Span("shard", "2pc-prepare", "router0", "", 100, 900)
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("export: %v", err)
		}
		return buf.Bytes()
	}
	one, two := build(), build()
	if !bytes.Equal(one, two) {
		t.Fatalf("trace export not deterministic:\n%s\n---\n%s", one, two)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(one, &doc); err != nil {
		t.Fatalf("trace not valid JSON: %v\n%s", err, one)
	}
	var begins, ends, counters, metas int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "b":
			begins++
		case "e":
			ends++
		case "C":
			counters++
		case "M":
			metas++
		}
	}
	if begins == 0 || begins != ends {
		t.Fatalf("unbalanced async events: %d begins, %d ends", begins, ends)
	}
	if counters != 1 {
		t.Fatalf("counters = %d, want 1", counters)
	}
	if metas < 3 { // two process names + at least one thread name
		t.Fatalf("metadata events = %d, want >= 3", metas)
	}
}

// TestClampHoldsForEverySubsetOfMilestones is the property the clamp loop
// in Finish exists for, over all 128 subsets of the seven milestones with
// seeded, partly retrograde times: whichever marks a request collected,
// in whatever order their times read, every phase is non-negative, queue +
// order + net is exactly the total, the span tree tiles the
// request span — and a request with no client-side mark records nothing.
func TestClampHoldsForEverySubsetOfMilestones(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for set := 0; set < 1<<numMilestones; set++ {
		for draw := 0; draw < 16; draw++ {
			tr := New(Options{Spans: true, SpanCap: 8})
			tr.BeginRun("run")
			for m := Milestone(0); m < numMilestones; m++ {
				if set&(1<<m) == 0 {
					continue
				}
				// Roughly ascending in milestone order, with jitter wide
				// enough that about a third of neighbours read backwards.
				tr.Mark(m, "k", sim.Time(1000+100*int(m)+rng.Intn(300)))
			}
			tr.Finish("k", true)
			s := tr.Summary()
			if set&(1<<Arrive|1<<Invoke) == 0 {
				if s.Count != 0 || tr.SpanCount() != 0 {
					t.Fatalf("set %07b: no client-side mark, yet %d requests and %d spans recorded", set, s.Count, tr.SpanCount())
				}
				continue
			}
			if s.Count != 1 {
				t.Fatalf("set %07b: recorded %d requests, want 1", set, s.Count)
			}
			for name, d := range map[string]sim.Time{"queue": s.Queue, "order": s.Order, "net": s.Net, "total": s.Total} {
				if d < 0 {
					t.Fatalf("set %07b: %s = %d is negative (%+v)", set, name, d, s)
				}
			}
			if sum := s.Queue + s.Order + s.Net; sum != s.Total {
				t.Fatalf("set %07b: phases sum to %d, total is %d (%+v)", set, sum, s.Total, s)
			}
			if want := set&(1<<ReadServe) != 0; (s.FastCount == 1) != want {
				t.Fatalf("set %07b: FastCount = %d", set, s.FastCount)
			}
			var request, tiled sim.Time
			tr.spans.each(func(sp Span) {
				if sp.Name == "request" {
					request = sp.End - sp.Start
				} else {
					tiled += sp.End - sp.Start
				}
			})
			if request != s.Total || tiled != s.Total {
				t.Fatalf("set %07b: request span %d, sub-spans %d, total %d", set, request, tiled, s.Total)
			}
		}
	}
}
