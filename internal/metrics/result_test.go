package metrics

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rubin/internal/sim"
)

func sampleResult() *Result {
	r := NewResult("E5", "BFT agreement", "paper future work", 1, false)
	r.SetConfig("payloads_kb", "1,4")
	r.SetConfig("n", "4")
	s := r.AddSeries("Reptor+RUBIN", MetricLatencyMean, "us", "rdma-rubin", "payload_kb")
	s.Add(1, 123.25)
	s.Add(4, 150.5)
	t := r.AddSeries("Reptor+RUBIN", MetricThroughput, "req/s", "rdma-rubin", "payload_kb")
	t.Add(1, 9000)
	t.Add(4, 7000)
	return r
}

func TestResultRoundTrip(t *testing.T) {
	r := sampleResult()
	b, err := r.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseResult(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", r, got)
	}
	b2, err := got.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("re-marshal not byte-identical:\n%s\nvs\n%s", b, b2)
	}
}

func TestResultValidate(t *testing.T) {
	mutations := map[string]func(*Result){
		"bad schema":       func(r *Result) { r.Schema = "rubin-bench/0" },
		"bad name":         func(r *Result) { r.Experiment = "fig3" },
		"tag name":         func(r *Result) { r.Experiment = "ALLOC" },
		"empty title":      func(r *Result) { r.Title = "" },
		"empty figure":     func(r *Result) { r.Figure = "" },
		"nil config":       func(r *Result) { r.Config = nil },
		"no series":        func(r *Result) { r.Series = nil },
		"empty unit":       func(r *Result) { r.Series[0].Unit = "" },
		"empty xlabel":     func(r *Result) { r.Series[0].XLabel = "" },
		"no points":        func(r *Result) { r.Series[0].Points = nil },
		"NaN point":        func(r *Result) { r.Series[0].Points[0].Y = math.NaN() },
		"Inf point":        func(r *Result) { r.Series[0].Points[1].X = math.Inf(1) },
		"duplicate series": func(r *Result) { r.Series[1].Metric = r.Series[0].Metric },
	}
	if err := sampleResult().Validate(); err != nil {
		t.Fatalf("valid result rejected: %v", err)
	}
	for name, mutate := range mutations {
		r := sampleResult()
		mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid result", name)
		}
	}
}

func TestResultWriteReadFile(t *testing.T) {
	dir := t.TempDir()
	r := sampleResult()
	path, err := r.WriteFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_E5.json" {
		t.Fatalf("wrote %s, want BENCH_E5.json", path)
	}
	got, err := ReadResultFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("file round trip mismatch")
	}
}

func TestResultTables(t *testing.T) {
	tabs := sampleResult().Tables()
	if len(tabs) != 2 {
		t.Fatalf("got %d tables, want 2 (one per metric)", len(tabs))
	}
	if s := tabs[0].Series[0]; s.Name != "Reptor+RUBIN" || s.At(4) != 150.5 {
		t.Fatalf("latency table leads with %q, %v at 4KB; want Reptor+RUBIN, 150.5", s.Name, s.At(4))
	}
	if !strings.Contains(tabs[1].Render(), "req/s") {
		t.Fatalf("throughput table missing unit:\n%s", tabs[1].Render())
	}
}

// TestPercentileSeriesBundle asserts the five-series percentile bundle
// lands in the result with the documented metrics and units and records
// points on every series.
func TestPercentileSeriesBundle(t *testing.T) {
	r := NewResult("E9", "traffic", "beyond the paper", 1, false)
	ps := r.AddPercentileSeries("rate PBFT RUBIN", "rdma-rubin", "rate_ops_s")
	ps.Observe(1000, 100*sim.Microsecond, 200*sim.Microsecond, 400*sim.Microsecond, 900*sim.Microsecond, 995.5)
	ps.Observe(2000, 120*sim.Microsecond, 250*sim.Microsecond, 500*sim.Microsecond, 1100*sim.Microsecond, 1990.1)
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 5 {
		t.Fatalf("bundle added %d series, want 5", len(r.Series))
	}
	wantUnits := map[string]string{
		MetricLatencyP50: "us", MetricLatencyP90: "us",
		MetricLatencyP99: "us", MetricLatencyP999: "us",
		MetricGoodput: "op/s",
	}
	for metric, unit := range wantUnits {
		s := r.GetSeries("rate PBFT RUBIN", metric)
		if s == nil {
			t.Fatalf("missing metric %s", metric)
		}
		if s.Unit != unit || s.XLabel != "rate_ops_s" || s.Transport != "rdma-rubin" {
			t.Fatalf("series %s mislabeled: %+v", metric, s)
		}
		if len(s.Points) != 2 {
			t.Fatalf("series %s has %d points", metric, len(s.Points))
		}
	}
	if y := r.GetSeries("rate PBFT RUBIN", MetricLatencyP99).At(1000); y != 400 {
		t.Fatalf("p99 at x=1000 is %v µs, want 400", y)
	}
	if y := r.GetSeries("rate PBFT RUBIN", MetricGoodput).At(2000); y != 1990.1 {
		t.Fatalf("goodput at x=2000 is %v, want 1990.1", y)
	}
}
