package bench

import (
	"bytes"
	"testing"

	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// tinyE9Context shrinks E9 below quick mode while keeping every sweep,
// both systems and both transports on their real code paths.
func tinyE9Context() RunContext {
	rc := DefaultRunContext()
	rc.Quick = true
	rc.Seed = 11
	rc.Knobs = map[string]string{
		"rates": "900", "skews": "99", "read_pcts": "50", "ks": "1",
		"users": "8", "conns": "2", "keys": "16", "ops": "30", "warmup": "5",
	}
	return rc
}

// TestE9SameSeedRunsAreByteIdentical mirrors the registry determinism
// test for the traffic study specifically: two same-seed runs must
// marshal to byte-identical JSON, and the result must carry the full
// percentile bundle for every sweep and system.
func TestE9SameSeedRunsAreByteIdentical(t *testing.T) {
	rc := tinyE9Context()
	first, err := Run("E9", rc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run("E9", rc)
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
		t.Fatal("two seed-11 E9 runs marshal differently")
	}
	for _, prefix := range []string{"rate", "skew", "mix"} {
		for _, sys := range []string{"PBFT", "COP-1"} {
			for _, tr := range []string{"RUBIN", "NIO"} {
				name := prefix + " " + sys + " " + tr
				for _, metric := range []string{
					metrics.MetricLatencyP50, metrics.MetricLatencyP90,
					metrics.MetricLatencyP99, metrics.MetricLatencyP999,
					metrics.MetricGoodput,
				} {
					s := first.GetSeries(name, metric)
					if s == nil {
						t.Fatalf("missing series (%s, %s)", name, metric)
					}
					if len(s.Points) == 0 || s.Points[0].Y <= 0 {
						t.Fatalf("series (%s, %s) carries no positive point", name, metric)
					}
				}
			}
		}
	}
}

// trafficSpec is a four-replica deployment on default protocol settings
// with conns front-ends; its label gives the run a tracer of its own.
func trafficSpec(kind transport.Kind, conns int, seed int64) deploySpec {
	return deploySpec{kind: kind, pbft: pbftConfig(4, 1, 0), seed: seed, conns: conns, label: "traffic"}
}

// runTraffic drives w through a fresh system built from s — plain PBFT at
// instances 0, else a COP group of that many — as an E9 point does.
func runTraffic(s deploySpec, instances int, w workload.Config) (TrafficResult, error) {
	d, err := newAgreement(s, instances, model.Default())
	if err != nil {
		return TrafficResult{}, err
	}
	return d.runWorkload(w)
}

// TestRunTrafficCOPRoutesByKey drives a skewed, delete-heavy workload
// through a 2-instance COP group: without per-key routing the shared
// state machines would interleave same-key operations differently per
// node and the linearizability check inside runWorkload would fail.
func TestRunTrafficCOPRoutesByKey(t *testing.T) {
	r, err := runTraffic(trafficSpec(transport.KindRDMA, 2, 5), 2, workload.Config{
		Users: 8, Keys: keyChooser(12, 99), ValueSize: 16,
		Ops: 60, Warmup: 5,
		Mix:     workload.Mix{ReadPct: 40, WritePct: 40, DeletePct: 20},
		Arrival: workload.Closed(1, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 65 || r.HistoryOps != 65 {
		t.Fatalf("completed %d, history %d, want 65", r.Completed, r.HistoryOps)
	}
	if r.Goodput <= 0 || r.P50 <= 0 || r.P999 < r.P50 {
		t.Fatalf("implausible result %+v", r)
	}
}

// TestRunTrafficOpenLoopPBFT exercises the Poisson path over the plain
// cluster on the TCP backend.
func TestRunTrafficOpenLoopPBFT(t *testing.T) {
	r, err := runTraffic(trafficSpec(transport.KindTCP, 2, 3), 0, workload.Config{
		Users: 6, Keys: workload.NewUniform(16), ValueSize: 16,
		Ops: 50, Warmup: 5,
		Mix:     workload.Mix{ReadPct: 45, WritePct: 45, DeletePct: 5, ScanPct: 5},
		Arrival: workload.Poisson(1200),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 55 {
		t.Fatalf("completed %d, want 55", r.Completed)
	}
	// Under-saturated open loop: goodput must sit near the offered rate.
	if r.Goodput < 900 || r.Goodput > 1600 {
		t.Fatalf("goodput %.0f, want ~1200", r.Goodput)
	}
}

// TestE9RejectsMalformedKnobs pins the knob validation.
func TestE9RejectsMalformedKnobs(t *testing.T) {
	for name, knobs := range map[string]map[string]string{
		"theta >= 1":      {"skews": "100"},
		"mix over 100":    {"read_pcts": "95"},
		"scan over 100":   {"scan_pct": "60"}, // breaks the fixed 45%-read sweeps
		"conns > users":   {"users": "2", "conns": "4"},
		"n below quorum":  {"n": "3"},
		"negative skew":   {"skews": "-1"},
		"tiny keyspace":   {"keys": "4"},
		"zero rate":       {"rates": "0"},
		"unknown knob":    {"warp": "9"},
		"malformed lists": {"rates": "a,b"},
	} {
		rc := tinyE9Context()
		for k, v := range knobs {
			rc.Knobs[k] = v
		}
		if _, err := Run("E9", rc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
