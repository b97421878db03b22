package bench

import (
	"bytes"
	"testing"

	"rubin/internal/metrics"
	"rubin/internal/obs"
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// assertPartition checks the breakdown invariant every measurement run
// must satisfy: the phases partition the tracer's view of the latency
// (they sum to Breakdown.Total exactly, up to integer-mean rounding of
// the three recorders) and Breakdown.Total agrees with the independently
// recorded mean latency within 1%.
func assertPartition(t *testing.T, label string, s obs.Summary, mean sim.Time) {
	t.Helper()
	if s.Count == 0 {
		t.Fatalf("%s: breakdown saw no finished requests", label)
	}
	sum := s.Queue + s.Order + s.Net
	if d := sum - s.Total; d > 3 || d < -3 {
		t.Errorf("%s: phases sum to %v but total is %v", label, sum, s.Total)
	}
	diff := float64(s.Total - mean)
	if diff < 0 {
		diff = -diff
	}
	if mean <= 0 || diff > 0.01*float64(mean) {
		t.Errorf("%s: breakdown total %v vs measured mean %v (>1%% apart)", label, s.Total, mean)
	}
}

// TestBreakdownPartitionsMeanLatency pins the tentpole invariant on all
// three measurement drivers: PBFT closed loop, COP closed loop, and the
// workload-driven traffic study.
func TestBreakdownPartitionsMeanLatency(t *testing.T) {
	bft := quickLoop(t, quickSpec(transport.KindRDMA, 4), 0, 8, 40, 5)
	assertPartition(t, "closed loop PBFT", bft.Breakdown, bft.Mean)

	cop := quickCOP(t, transport.KindTCP, 2)
	assertPartition(t, "closed loop COP", cop.Breakdown, cop.Mean)

	traffic, err := runTraffic(trafficSpec(transport.KindRDMA, 2, 7), 2, workload.Config{
		Users: 8, Keys: keyChooser(16, 99), ValueSize: 16,
		Ops: 40, Warmup: 5,
		Mix:     workload.Mix{ReadPct: 50, WritePct: 50},
		Arrival: workload.Closed(1, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertPartition(t, "traffic", traffic.Breakdown, traffic.Mean)
	if peak := traffic.Stats["msgnet.peak_queue_bytes"]; peak <= 0 {
		t.Errorf("traffic run saw no msgnet queueing (peak %v bytes)", peak)
	}
}

// assertResultBreakdowns walks a stored Result and checks, for every
// series that carries both a latency mean and a breakdown bundle, that
// the breakdown points sum to the mean within 1% — the acceptance
// criterion of the breakdown_* series, enforced on the real registry
// output rather than the in-memory structs.
func assertResultBreakdowns(t *testing.T, res *metrics.Result) int {
	t.Helper()
	checked := 0
	for _, s := range res.Series {
		if s.Metric != metrics.MetricLatencyMean {
			continue
		}
		q := res.GetSeries(s.Name, metrics.MetricBreakdownQueue)
		if q == nil {
			continue
		}
		parts := []*metrics.ResultSeries{
			q,
			res.GetSeries(s.Name, metrics.MetricBreakdownOrder),
			res.GetSeries(s.Name, metrics.MetricBreakdownNet),
		}
		for i, pt := range s.Points {
			sum := 0.0
			for _, p := range parts {
				if p == nil || len(p.Points) != len(s.Points) {
					t.Fatalf("series %q: breakdown bundle incomplete or misaligned", s.Name)
				}
				sum += p.Points[i].Y
			}
			diff := sum - pt.Y
			if diff < 0 {
				diff = -diff
			}
			if pt.Y <= 0 || diff > 0.01*pt.Y {
				t.Errorf("series %q x=%v: breakdown sums to %.3fus, mean is %.3fus",
					s.Name, pt.X, sum, pt.Y)
			}
			checked++
		}
	}
	return checked
}

// TestE8AndE9QuickCarryBreakdownSeries runs both registry experiments at
// reduced size and validates the stored breakdown series against their
// latency means point by point.
func TestE8AndE9QuickCarryBreakdownSeries(t *testing.T) {
	rc8 := DefaultRunContext()
	rc8.Quick = true
	rc8.Knobs = map[string]string{
		"ns": "4", "ks": "1,2", "payloads_kb": "1", "cop_payloads_kb": "1",
		"requests": "20", "warmup": "4", "clients": "2",
	}
	res8, err := Run("E8", rc8)
	if err != nil {
		t.Fatal(err)
	}
	if n := assertResultBreakdowns(t, res8); n == 0 {
		t.Error("E8 carried no breakdown points")
	}
	// The COP axis additionally reports the busiest node's CPU.
	if res8.GetSeries("COP RUBIN 1KB", metrics.MetricLeaderCPU) == nil {
		t.Errorf("E8 misses series (COP RUBIN 1KB, %s)", metrics.MetricLeaderCPU)
	}

	rc9 := tinyE9Context()
	res9, err := Run("E9", rc9)
	if err != nil {
		t.Fatal(err)
	}
	if n := assertResultBreakdowns(t, res9); n == 0 {
		t.Error("E9 carried no breakdown points")
	}
	// Satellite series: queue watermarks on every system.
	for _, name := range []string{"rate PBFT RUBIN", "skew COP-1 RUBIN"} {
		if s := res9.GetSeries(name, metrics.MetricPeakQueueBytes); s == nil || s.Points[0].Y <= 0 {
			t.Errorf("E9 misses a positive (%s, peak_queue_bytes) series", name)
		}
	}
}

// TestE7CarriesPerReplicaQueueSeries pins the per-replica send-queue
// watermark series of the fault-timeline experiment.
func TestE7CarriesPerReplicaQueueSeries(t *testing.T) {
	res, err := quickE7()
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		s := res.GetSeries(string(kind)+" queue", metrics.MetricPeakQueueBytes)
		if s == nil {
			t.Fatalf("%s: missing per-replica peak_queue_bytes series", kind)
		}
		if len(s.Points) != 4 {
			t.Fatalf("%s: %d replica points, want 4", kind, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("%s: replica %v never queued (peak %v bytes)", kind, p.X, p.Y)
			}
		}
	}
}

// TestTracedSuiteRunIsDeterministic drives the same tiny E9 configuration
// twice with span recording on and requires byte-identical Chrome trace
// exports — the in-process version of the CI trace-determinism job.
func TestTracedSuiteRunIsDeterministic(t *testing.T) {
	export := func() []byte {
		rc := tinyE9Context()
		rc.Trace = obs.New(obs.Options{Spans: true})
		if _, err := Run("E9", rc); err != nil {
			t.Fatal(err)
		}
		if rc.Trace.SpanCount() == 0 || rc.Trace.SampleCount() == 0 || rc.Trace.RunCount() == 0 {
			t.Fatalf("traced run collected spans=%d samples=%d runs=%d",
				rc.Trace.SpanCount(), rc.Trace.SampleCount(), rc.Trace.RunCount())
		}
		var buf bytes.Buffer
		if err := rc.Trace.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := export()
	second := export()
	if !bytes.Equal(first, second) {
		t.Fatal("two identical traced E9 runs export different Chrome traces")
	}
}
