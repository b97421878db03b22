package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"regexp"

	"rubin/internal/sim"
)

// SchemaVersion identifies the layout of a BENCH_*.json file. Bump it
// whenever a field is added, removed or changes meaning; ParseResult
// refuses a file of another schema.
const SchemaVersion = "rubin-bench/1"

// Well-known metric names. A ResultSeries may use other names, but the
// experiments in this repository stick to these so the claims table and
// the docs can name a series the same way in every file.
const (
	MetricLatencyMean = "latency_mean" // unit: us
	MetricLatencyP50  = "latency_p50"  // unit: us
	MetricLatencyP90  = "latency_p90"  // unit: us
	MetricLatencyP99  = "latency_p99"  // unit: us
	MetricLatencyP999 = "latency_p999" // unit: us
	MetricThroughput  = "throughput"   // unit: req/s (or krps where noted)
	MetricGoodput     = "goodput"      // unit: op/s (measured completions)
	MetricCommits     = "commits"      // unit: count
	MetricSendFaults  = "send_faults"  // unit: count

	// Latency-attribution metrics (internal/obs). The three breakdown
	// phases partition the measured end-to-end latency: their per-point
	// sum equals latency_mean.
	MetricBreakdownQueue = "breakdown_queue" // unit: us (client-side queueing)
	MetricBreakdownOrder = "breakdown_order" // unit: us (leader ordering CPU)
	MetricBreakdownNet   = "breakdown_net"   // unit: us (wire + agreement rounds)

	// Pressure metrics exported by E7/E8/E9.
	MetricPeakQueueBytes = "peak_queue_bytes" // unit: bytes (msgnet high watermark)
	MetricLeaderCPU      = "leader_cpu"       // unit: utilization (busiest replica host CPU over the measured window)

	// Read-only fast-path metrics exported by E11 (pbft.Client).
	MetricFastReads     = "fast_reads"     // unit: count (reads served by the fast path)
	MetricFastFallbacks = "fast_fallbacks" // unit: count (fast reads retried through ordering)

	// Sharding metrics exported by E10 (internal/shard).
	MetricCommittedGoodput = "committed_goodput" // unit: op/s (goodput minus aborted txns)
	MetricAbortedTxns      = "aborted_txns"      // unit: count (no-wait 2PC conflicts)
	MetricCrossShardTxns   = "cross_shard_txns"  // unit: count (txns routed through 2PC)
	MetricLockRetries      = "lock_retries"      // unit: count (LOCKED resubmissions)
	MetricPrepareWait      = "prepare_wait"      // unit: us (2PC dispatch->all votes)
	MetricCommitWait       = "commit_wait"       // unit: us (2PC decision->all quorums)

	// State-size metrics exported by E12 (incremental checkpoints and
	// Merkle partial state transfer).
	MetricRecoveryTime    = "recovery_time"    // unit: us (restart -> caught up to the group)
	MetricCheckpointBytes = "checkpoint_bytes" // unit: bytes (steady-state serialization per checkpoint)
	MetricCheckpointPause = "checkpoint_pause" // unit: us (modeled digest CPU per steady checkpoint)
	MetricTransferBytes   = "transfer_bytes"   // unit: bytes (state bytes served by responders)
	MetricStateBytes      = "state_bytes"      // unit: bytes (full snapshot size at run end)
	MetricThroughputDip   = "throughput_dip"   // unit: ratio (recovered-phase / healthy throughput)
)

// ResultSeries is one named curve of an experiment result: points share an
// X axis (x_label) and a Y metric with an explicit unit. Transport names
// the backend the series ran on, when one applies.
type ResultSeries struct {
	Name      string  `json:"name"`
	Metric    string  `json:"metric"`
	Unit      string  `json:"unit"`
	Transport string  `json:"transport,omitempty"`
	XLabel    string  `json:"x_label"`
	Points    []Point `json:"points"`
}

// Add appends one (x, y) sample.
func (s *ResultSeries) Add(x, y float64) { s.Points = append(s.Points, Point{X: x, Y: y}) }

// At returns the Y value at the given X, or NaN if absent.
func (s *ResultSeries) At(x float64) float64 {
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	return math.NaN()
}

// Result is the machine-readable outcome of one experiment run — the
// content of a BENCH_<experiment>.json file. Config echoes every knob the
// run was configured with (flattened to strings so the echo marshals
// deterministically: encoding/json sorts map keys), and Series carries the
// measured curves. Two runs with identical seed and config marshal to
// byte-identical JSON.
type Result struct {
	Schema     string            `json:"schema"`
	Experiment string            `json:"experiment"`
	Title      string            `json:"title"`
	Figure     string            `json:"figure"`
	Seed       int64             `json:"seed"`
	Quick      bool              `json:"quick"`
	Config     map[string]string `json:"config"`
	Series     []*ResultSeries   `json:"series"`
	// Notes carries free-form per-run annotations that are outputs rather
	// than curves — e.g. E7's deterministic fault traces. Optional.
	Notes map[string]string `json:"notes,omitempty"`
}

// NewResult returns an empty result carrying the experiment identity.
func NewResult(experiment, title, figure string, seed int64, quick bool) *Result {
	return &Result{
		Schema:     SchemaVersion,
		Experiment: experiment,
		Title:      title,
		Figure:     figure,
		Seed:       seed,
		Quick:      quick,
		Config:     map[string]string{},
	}
}

// SetConfig records one knob of the run's effective configuration.
func (r *Result) SetConfig(key, value string) { r.Config[key] = value }

// SetNote records one free-form output annotation.
func (r *Result) SetNote(key, value string) {
	if r.Notes == nil {
		r.Notes = map[string]string{}
	}
	r.Notes[key] = value
}

// AddSeries appends a new series and returns it.
func (r *Result) AddSeries(name, metric, unit, transport, xLabel string) *ResultSeries {
	s := &ResultSeries{Name: name, Metric: metric, Unit: unit, Transport: transport, XLabel: xLabel}
	r.Series = append(r.Series, s)
	return s
}

// PercentileSeries bundles the latency-distribution curves of one
// workload configuration — p50/p90/p99/p999 plus goodput — the
// histogram-style result shape the traffic experiments (E9) emit per
// sweep. All five share one name and X axis; they stay distinct series
// so a stored file's diff shows each percentile on its own.
type PercentileSeries struct {
	P50, P90, P99, P999 *ResultSeries
	Goodput             *ResultSeries
}

// AddPercentileSeries appends the five-series percentile bundle.
func (r *Result) AddPercentileSeries(name, transport, xLabel string) PercentileSeries {
	return PercentileSeries{
		P50:     r.AddSeries(name, MetricLatencyP50, "us", transport, xLabel),
		P90:     r.AddSeries(name, MetricLatencyP90, "us", transport, xLabel),
		P99:     r.AddSeries(name, MetricLatencyP99, "us", transport, xLabel),
		P999:    r.AddSeries(name, MetricLatencyP999, "us", transport, xLabel),
		Goodput: r.AddSeries(name, MetricGoodput, "op/s", transport, xLabel),
	}
}

// Observe records one sweep point from percentile cuts of a latency
// distribution plus the measured goodput.
func (ps PercentileSeries) Observe(x float64, p50, p90, p99, p999 sim.Time, goodput float64) {
	ps.P50.Add(x, p50.Micros())
	ps.P90.Add(x, p90.Micros())
	ps.P99.Add(x, p99.Micros())
	ps.P999.Add(x, p999.Micros())
	ps.Goodput.Add(x, goodput)
}

// GetSeries returns the series with the given name and metric, or nil.
func (r *Result) GetSeries(name, metric string) *ResultSeries {
	for _, s := range r.Series {
		if s.Name == name && s.Metric == metric {
			return s
		}
	}
	return nil
}

// Experiment names are figure-style: "E1".."E12".
var experimentNameRE = regexp.MustCompile(`^E[0-9]+$`)

// Validate checks the result against the documented schema (see
// docs/EXPERIMENTS.md): version match, well-formed experiment name,
// non-empty labels and units, at least one series, no duplicate
// (name, metric) pair, and finite point values throughout.
func (r *Result) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("metrics: schema %q, want %q", r.Schema, SchemaVersion)
	}
	if !experimentNameRE.MatchString(r.Experiment) {
		return fmt.Errorf("metrics: bad experiment name %q", r.Experiment)
	}
	if r.Title == "" {
		return fmt.Errorf("metrics: %s: empty title", r.Experiment)
	}
	if r.Figure == "" {
		return fmt.Errorf("metrics: %s: empty figure", r.Experiment)
	}
	if r.Config == nil {
		return fmt.Errorf("metrics: %s: missing config echo", r.Experiment)
	}
	if len(r.Series) == 0 {
		return fmt.Errorf("metrics: %s: no series", r.Experiment)
	}
	seen := map[string]bool{}
	for _, s := range r.Series {
		if s.Name == "" || s.Metric == "" || s.Unit == "" || s.XLabel == "" {
			return fmt.Errorf("metrics: %s: series %+v missing name/metric/unit/x_label", r.Experiment, s)
		}
		key := s.Name + "\x00" + s.Metric
		if seen[key] {
			return fmt.Errorf("metrics: %s: duplicate series (%s, %s)", r.Experiment, s.Name, s.Metric)
		}
		seen[key] = true
		if len(s.Points) == 0 {
			return fmt.Errorf("metrics: %s: series (%s, %s) has no points", r.Experiment, s.Name, s.Metric)
		}
		for _, p := range s.Points {
			if math.IsNaN(p.X) || math.IsInf(p.X, 0) || math.IsNaN(p.Y) || math.IsInf(p.Y, 0) {
				return fmt.Errorf("metrics: %s: series (%s, %s) has non-finite point (%v, %v)",
					r.Experiment, s.Name, s.Metric, p.X, p.Y)
			}
		}
	}
	return nil
}

// Marshal renders the result as indented JSON with a trailing newline.
// The encoding is deterministic: struct fields keep declaration order and
// encoding/json sorts the Config map keys, so identical results produce
// byte-identical files.
func (r *Result) Marshal() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// ParseResult decodes and validates one BENCH_*.json payload.
func ParseResult(data []byte) (*Result, error) {
	var r Result
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("metrics: decoding result: %w", err)
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}

// ResultFilename returns the canonical file name for an experiment's
// result, BENCH_<experiment>.json.
func ResultFilename(experiment string) string {
	return fmt.Sprintf("BENCH_%s.json", experiment)
}

// WriteFile validates the result and writes it to dir under its canonical
// name, returning the full path.
func (r *Result) WriteFile(dir string) (string, error) {
	if err := r.Validate(); err != nil {
		return "", err
	}
	b, err := r.Marshal()
	if err != nil {
		return "", err
	}
	path := dir + string(os.PathSeparator) + ResultFilename(r.Experiment)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ReadResultFile loads and validates one BENCH_*.json file.
func ReadResultFile(path string) (*Result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r, err := ParseResult(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// Tables renders the result as human-readable text tables, one per
// distinct (metric, x-axis) pair in series order — the presentation the
// cmd/ binaries print alongside the JSON. Series measuring the same
// metric over different x-axes (e.g. E8's replica and instance sweeps)
// land in separate tables rather than being interleaved on one axis.
func (r *Result) Tables() []*Table {
	var order []string
	byAxis := map[string]*Table{}
	for _, s := range r.Series {
		key := s.Metric + "\x00" + s.XLabel
		tab, ok := byAxis[key]
		if !ok {
			tab = NewTable(fmt.Sprintf("%s — %s: %s by %s", r.Experiment, r.Title, s.Metric, s.XLabel),
				s.XLabel, s.Unit)
			byAxis[key] = tab
			order = append(order, key)
		}
		tab.Series = append(tab.Series, s)
	}
	tables := make([]*Table, 0, len(order))
	for _, key := range order {
		tables = append(tables, byAxis[key])
	}
	return tables
}
