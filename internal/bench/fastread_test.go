package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"rubin/internal/metrics"
	"rubin/internal/obs"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// tinyE11Context shrinks E11 below quick mode while keeping both
// sweeps, both fast-path settings and both transports on their real
// code paths.
func tinyE11Context() RunContext {
	rc := DefaultRunContext()
	rc.Quick = true
	rc.Seed = 13
	rc.Knobs = map[string]string{
		"read_pcts": "80", "batches": "4",
		"users": "8", "conns": "2", "keys": "16", "ops": "40", "warmup": "5",
	}
	return rc
}

// TestE11SameSeedRunsAreByteIdentical pins E11's determinism and shape:
// two same-seed runs marshal byte-identically, every sweep × fp × transport
// combo carries a positive goodput point, and the fp=on combos export
// positive fast-read counters.
func TestE11SameSeedRunsAreByteIdentical(t *testing.T) {
	rc := tinyE11Context()
	first, err := Run("E11", rc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run("E11", rc)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := first.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := second.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two seed-13 E11 runs marshal differently")
	}
	for _, prefix := range []string{"mix", "batch"} {
		for _, fp := range []string{"fp=on", "fp=off"} {
			for _, tr := range []string{"RUBIN", "NIO"} {
				name := prefix + " " + fp + " " + tr
				s := first.GetSeries(name, metrics.MetricGoodput)
				if s == nil {
					t.Fatalf("missing series (%s, goodput)", name)
				}
				if len(s.Points) == 0 || s.Points[0].Y <= 0 {
					t.Fatalf("series (%s, goodput) carries no positive point", name)
				}
				fr := first.GetSeries(name, metrics.MetricFastReads)
				if fp == "fp=on" {
					if fr == nil || len(fr.Points) == 0 || fr.Points[0].Y <= 0 {
						t.Fatalf("series (%s) exports no positive fast_reads", name)
					}
				} else if fr != nil {
					t.Fatalf("fp=off series %q exports fast_reads", name)
				}
			}
		}
	}
}

// TestRunTrafficFastPathOffIsInert pins the opt-in contract: with a zero
// readTimeout, no fast reads are served and no history op is tagged, even
// for a read-heavy mix.
func TestRunTrafficFastPathOffIsInert(t *testing.T) {
	r, err := runTraffic(trafficSpec(transport.KindTCP, 2, 9), 0, workload.Config{
		Users: 6, Keys: workload.NewUniform(16), ValueSize: 16,
		Ops: 40, Warmup: 5,
		Mix:     workload.Mix{ReadPct: 80, WritePct: 20},
		Arrival: workload.Closed(1, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if reads, fallbacks := r.Stats["pbft.fast_reads"], r.Stats["pbft.fast_read_fallbacks"]; reads != 0 || fallbacks != 0 || r.FastOps != 0 {
		t.Fatalf("fast path leaked into a disabled run: reads=%v fallbacks=%v ops=%d", reads, fallbacks, r.FastOps)
	}
}

// TestE11TraceNamesItsPoints: in a -trace file every E11 point is a
// process of its own whose name starts with its experiment's, so a suite
// trace tells E11's points from E9's.
func TestE11TraceNamesItsPoints(t *testing.T) {
	rc := tinyE11Context()
	rc.Trace = obs.New(obs.Options{Spans: true})
	if _, err := Run("E11", rc); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rc.Trace.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Args struct{ Name string }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ev := range trace.TraceEvents {
		if ev.Name == "process_name" {
			names = append(names, ev.Args.Name)
		}
	}
	// Two sweeps of one x each, both fast-path settings, both backends.
	if len(names) != 8 {
		t.Fatalf("%d processes, want one per point (8): %q", len(names), names)
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "E11 ") {
			t.Errorf("process %q does not name E11", name)
		}
	}
}

// TestE11RejectsMalformedKnobs pins the knob validation.
func TestE11RejectsMalformedKnobs(t *testing.T) {
	for name, knobs := range map[string]map[string]string{
		"read share over 100": {"read_pcts": "101"},
		"zero batch":          {"batches": "0"},
		"n below quorum":      {"n": "3"},
		"conns > users":       {"users": "2", "conns": "4"},
		"zero timeout":        {"read_timeout_us": "0"},
		"unknown knob":        {"warp": "9"},
	} {
		rc := tinyE11Context()
		for k, v := range knobs {
			rc.Knobs[k] = v
		}
		if _, err := Run("E11", rc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
