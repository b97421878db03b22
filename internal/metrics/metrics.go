// Package metrics provides measurement instrumentation and result
// formats for the simulated experiments.
//
// Three layers build on each other. Recorder collects raw per-operation
// virtual-time samples while a simulation runs. Result is the
// machine-readable outcome: a schema-versioned, deterministic JSON
// document (one BENCH_<experiment>.json per run) carrying per-series
// points — the sweep curves the paper's figures plot — with explicit
// units, the effective configuration echo and the seed, so benchmark
// trajectories can be validated, stored and diffed across commits (a
// deterministic run regenerates a stored file byte for byte, so cmp and
// git diff are the comparison). Table renders a result's series as
// aligned text tables.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"rubin/internal/sim"
)

// Recorder accumulates duration samples (virtual time).
type Recorder struct {
	samples []sim.Time
	sorted  bool
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Grow makes room for n more samples: a run of known length never re-grows.
func (r *Recorder) Grow(n int) { r.samples = slices.Grow(r.samples, n) }

// Record adds one sample.
func (r *Recorder) Record(d sim.Time) {
	r.samples = append(r.samples, d)
	r.sorted = false
}

// Count returns the number of samples.
func (r *Recorder) Count() int { return len(r.samples) }

// Mean returns the arithmetic mean, or 0 with no samples.
func (r *Recorder) Mean() sim.Time {
	if len(r.samples) == 0 {
		return 0
	}
	var sum sim.Time
	for _, s := range r.samples {
		sum += s
	}
	return sum / sim.Time(len(r.samples))
}

// Percentile returns the p-th percentile (0 < p <= 100) using
// nearest-rank, or 0 with no samples.
func (r *Recorder) Percentile(p float64) sim.Time {
	if len(r.samples) == 0 {
		return 0
	}
	r.sort()
	if p <= 0 {
		return r.samples[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(r.samples))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(r.samples) {
		rank = len(r.samples)
	}
	return r.samples[rank-1]
}

// Reset discards all samples.
func (r *Recorder) Reset() {
	r.samples = r.samples[:0]
	r.sorted = false
}

func (r *Recorder) sort() {
	if !r.sorted {
		sort.Slice(r.samples, func(i, j int) bool { return r.samples[i] < r.samples[j] })
		r.sorted = true
	}
}

// Throughput converts an operation count over a virtual duration into
// operations per second.
func Throughput(ops int, elapsed sim.Time) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / elapsed.Seconds()
}

// Point is one (x, y) sample of a sweep series.
type Point struct {
	X float64 `json:"x"`
	Y float64 `json:"y"`
}

// Table renders a set of series sharing an X axis as an aligned text table
// — one row per X value, one column per series — the same rows the paper's
// figures plot.
type Table struct {
	Title  string
	XLabel string
	YLabel string
	Series []*ResultSeries
}

// NewTable creates a table with the given labels.
func NewTable(title, xLabel, yLabel string) *Table {
	return &Table{Title: title, XLabel: xLabel, YLabel: yLabel}
}

// Render formats the table.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s (%s)\n", t.Title, t.YLabel)
	// Collect the union of X values in first-seen order.
	var xs []float64
	seen := map[float64]bool{}
	for _, s := range t.Series {
		for _, p := range s.Points {
			if !seen[p.X] {
				seen[p.X] = true
				xs = append(xs, p.X)
			}
		}
	}
	sort.Float64s(xs)
	fmt.Fprintf(&b, "%-12s", t.XLabel)
	for _, s := range t.Series {
		fmt.Fprintf(&b, " %16s", s.Name)
	}
	b.WriteByte('\n')
	for _, x := range xs {
		fmt.Fprintf(&b, "%-12.0f", x)
		for _, s := range t.Series {
			y := s.At(x)
			if math.IsNaN(y) {
				fmt.Fprintf(&b, " %16s", "-")
			} else {
				fmt.Fprintf(&b, " %16.2f", y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
