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

func TestCompare(t *testing.T) {
	old := sampleResult()
	cur := sampleResult()
	cur.Series[0].Points[0].Y = 246.5 // latency at 1KB doubled
	deltas, err := Compare(old, cur)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 4 {
		t.Fatalf("got %d deltas, want 4", len(deltas))
	}
	var worst Delta
	for _, d := range deltas {
		if math.Abs(d.Pct) > math.Abs(worst.Pct) {
			worst = d
		}
	}
	if worst.Metric != MetricLatencyMean || worst.X != 1 || math.Abs(worst.Pct-100) > 1e-9 {
		t.Fatalf("worst delta = %+v, want +100%% latency at x=1", worst)
	}
	out := RenderDeltas(deltas)
	if !strings.Contains(out, "+100.0%") {
		t.Fatalf("rendered deltas missing +100.0%%:\n%s", out)
	}
	// Mismatched experiments refuse to compare.
	other := sampleResult()
	other.Experiment = "E6"
	if _, err := Compare(old, other); err == nil {
		t.Fatal("Compare accepted mismatched experiments")
	}
}

func TestCompareEdgeCases(t *testing.T) {
	t.Run("mismatched series names skip", func(t *testing.T) {
		old := sampleResult()
		cur := sampleResult()
		cur.Series[0].Name = "Reptor+NIO" // no longer matches anything in old
		deltas, err := Compare(old, cur)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range deltas {
			if d.Series == "Reptor+NIO" {
				t.Fatalf("renamed series produced a delta: %+v", d)
			}
		}
		if len(deltas) != 2 {
			t.Fatalf("got %d deltas, want 2 (only the still-matching series)", len(deltas))
		}
	})

	t.Run("zero-point series", func(t *testing.T) {
		old := sampleResult()
		cur := sampleResult()
		cur.Series[0].Points = nil // invalid per Validate, but Compare must not panic
		deltas, err := Compare(old, cur)
		if err != nil {
			t.Fatal(err)
		}
		if len(deltas) != 2 {
			t.Fatalf("got %d deltas, want 2", len(deltas))
		}
		old.Series[1].Points = nil // empty on the old side: every X misses
		deltas, err = Compare(old, cur)
		if err != nil {
			t.Fatal(err)
		}
		if len(deltas) != 0 {
			t.Fatalf("got %d deltas, want 0", len(deltas))
		}
	})

	t.Run("unit change is an error", func(t *testing.T) {
		old := sampleResult()
		cur := sampleResult()
		cur.Series[0].Unit = "ms"
		if _, err := Compare(old, cur); err == nil {
			t.Fatal("Compare accepted a unit change on a matched series")
		}
	})

	t.Run("zero baseline reports zero percent", func(t *testing.T) {
		old := sampleResult()
		cur := sampleResult()
		old.Series[0].Points[0].Y = 0
		deltas, err := Compare(old, cur)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range deltas {
			if d.Old == 0 && d.Pct != 0 {
				t.Fatalf("zero baseline produced pct %v", d.Pct)
			}
		}
	})
}

func TestRenderDeltasEdgeCases(t *testing.T) {
	if out := RenderDeltas(nil); !strings.Contains(out, "no overlapping") {
		// Whatever the empty rendering is, it must not panic and should
		// say something; accept any non-empty text.
		if strings.TrimSpace(out) == "" {
			t.Fatal("RenderDeltas(nil) rendered nothing")
		}
	}
	deltas := []Delta{
		{Series: "a", Metric: MetricLatencyMean, Unit: "us", X: 1, Old: 100, New: 101, Pct: 1},
		{Series: "b", Metric: MetricLatencyMean, Unit: "us", X: 1, Old: 100, New: 50, Pct: -50},
		{Series: "c", Metric: MetricLatencyMean, Unit: "us", X: 1, Old: 100, New: 110, Pct: 10},
	}
	out := RenderDeltas(deltas)
	// Sorted by |pct| descending: b (-50%) first, a (+1%) last.
	bi, ci, ai := strings.Index(out, "\nb "), strings.Index(out, "\nc "), strings.Index(out, "\na ")
	if !(bi < ci && ci < ai) {
		t.Fatalf("deltas not sorted by |pct|:\n%s", out)
	}
	// The input slice must not be reordered in place.
	if deltas[0].Series != "a" {
		t.Fatalf("RenderDeltas mutated its input: %+v", deltas)
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
