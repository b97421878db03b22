package metrics

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"rubin/internal/sim"
)

func TestRecorderBasics(t *testing.T) {
	r := NewRecorder()
	if r.Count() != 0 || r.Mean() != 0 || r.Percentile(0) != 0 || r.Percentile(100) != 0 {
		t.Fatal("empty recorder should be all zeros")
	}
	for _, v := range []sim.Time{30, 10, 20} {
		r.Record(v)
	}
	if r.Count() != 3 {
		t.Fatalf("Count = %d", r.Count())
	}
	if r.Mean() != 20 {
		t.Fatalf("Mean = %v, want 20", r.Mean())
	}
	if r.Percentile(0) != 10 || r.Percentile(100) != 30 {
		t.Fatalf("min/max = %v/%v", r.Percentile(0), r.Percentile(100))
	}
}

func TestRecorderPercentiles(t *testing.T) {
	r := NewRecorder()
	for i := 1; i <= 100; i++ {
		r.Record(sim.Time(i))
	}
	cases := []struct {
		p    float64
		want sim.Time
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0, 1}}
	for _, c := range cases {
		if got := r.Percentile(c.p); got != c.want {
			t.Errorf("P%.0f = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRecorderReset(t *testing.T) {
	r := NewRecorder()
	r.Record(10)
	r.Record(10)
	r.Reset()
	if r.Count() != 0 || r.Mean() != 0 || r.Percentile(99) != 0 {
		t.Fatal("Reset did not clear samples")
	}
}

func TestRecorderInterleavedRecordAndQuery(t *testing.T) {
	r := NewRecorder()
	r.Record(5)
	_ = r.Percentile(0) // forces a sort
	r.Record(1)         // must invalidate the sorted flag
	if r.Percentile(0) != 1 {
		t.Fatalf("min after late insert = %v, want 1", r.Percentile(0))
	}
}

func TestThroughput(t *testing.T) {
	if got := Throughput(1000, sim.Second); got != 1000 {
		t.Fatalf("Throughput = %v, want 1000", got)
	}
	if got := Throughput(10, 0); got != 0 {
		t.Fatalf("Throughput with zero time = %v, want 0", got)
	}
}

func TestSeriesAt(t *testing.T) {
	s := &ResultSeries{Name: "x"}
	s.Points = append(s.Points, Point{1, 10})
	s.Points = append(s.Points, Point{2, 20})
	if s.At(2) != 20 {
		t.Fatal("At(2) wrong")
	}
	if !math.IsNaN(s.At(3)) {
		t.Fatal("missing X should be NaN")
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("Latency", "payload_kb", "µs")
	a, b := &ResultSeries{Name: "TCP"}, &ResultSeries{Name: "RDMA"}
	tab.Series = []*ResultSeries{a, b}
	a.Points = append(a.Points, Point{1, 100})
	a.Points = append(a.Points, Point{10, 200})
	b.Points = append(b.Points, Point{1, 50})
	out := tab.Render()
	if !strings.Contains(out, "Latency") || !strings.Contains(out, "TCP") || !strings.Contains(out, "RDMA") {
		t.Fatalf("render missing headers:\n%s", out)
	}
	if !strings.Contains(out, "100.00") || !strings.Contains(out, "50.00") {
		t.Fatalf("render missing values:\n%s", out)
	}
	// X=10 exists only for TCP: the RDMA column shows a dash.
	lines := strings.Split(out, "\n")
	var row10 string
	for _, l := range lines {
		if strings.HasPrefix(l, "10") {
			row10 = l
		}
	}
	if !strings.Contains(row10, "-") {
		t.Fatalf("missing value not rendered as dash: %q", row10)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPropertyPercentileMonotone(t *testing.T) {
	prop := func(raw []uint16, p1, p2 uint8) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewRecorder()
		for _, v := range raw {
			r.Record(sim.Time(v))
		}
		a := float64(p1%101) + 0.0001 // avoid p=0 edge
		b := float64(p2%101) + 0.0001
		if a > b {
			a, b = b, a
		}
		pa, pb := r.Percentile(a), r.Percentile(b)
		return pa <= pb && pa >= r.Percentile(0) && pb <= r.Percentile(100)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: mean lies between min and max.
func TestPropertyMeanBounded(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewRecorder()
		for _, v := range raw {
			r.Record(sim.Time(v))
		}
		m := r.Mean()
		return m >= r.Percentile(0) && m <= r.Percentile(100)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: table X values render sorted.
func TestPropertyTableSortedX(t *testing.T) {
	prop := func(xs []uint8) bool {
		tab := NewTable("t", "x", "y")
		s := &ResultSeries{Name: "s"}
		tab.Series = []*ResultSeries{s}
		for _, x := range xs {
			s.Points = append(s.Points, Point{float64(x), 1})
		}
		out := tab.Render()
		lines := strings.Split(strings.TrimSpace(out), "\n")
		var got []float64
		for _, l := range lines[2:] {
			fields := strings.Fields(l)
			if len(fields) == 0 {
				continue
			}
			x, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				continue
			}
			got = append(got, x)
		}
		return sort.Float64sAreSorted(got)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
