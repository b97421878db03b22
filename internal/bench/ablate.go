package bench

import (
	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/rubin"
)

// Ablation names one variant of the RUBIN echo; the ablation bench
// (experiment E6) quantifies each Section IV optimization by disabling it
// in isolation in the channel configuration, and projects the planned
// zero-copy receive by zeroing its cost in the model.
type Ablation struct {
	Name   string
	Mutate func(*rubin.Config, *model.Params) // nil for the full channel
}

// Ablations returns the studied variants.
func Ablations() []Ablation {
	return []Ablation{
		{Name: "full (all optimizations)"},
		{Name: "no selective signaling", Mutate: func(c *rubin.Config, _ *model.Params) { c.SignalInterval = 1 }},
		{Name: "no doorbell batching", Mutate: func(c *rubin.Config, _ *model.Params) { c.PostBatch = 1 }},
		{Name: "no inline sends", Mutate: func(c *rubin.Config, _ *model.Params) { c.Inline = false }},
		{Name: "zero-copy receive (projected)", Mutate: func(_ *rubin.Config, p *model.Params) { p.Selector.CopyPerKB = 0 }},
	}
}

// ---------------------------------------------------------------------------
// Registry entry: E6 (Section IV optimization ablations).
// ---------------------------------------------------------------------------

func init() {
	Register(Experiment{
		Name: "E6", Title: "RUBIN channel optimization ablations (echo mean RTT)", Figure: "paper Section IV/V",
		knobs: []knob{
			{name: "payloads_kb", def: "1,4,16,64,100", quick: "2", min: 1, list: true},
			{name: "messages", def: "1000", quick: "150", min: 1},
			{name: "warmup", def: "50", quick: "20"},
			{name: "window", def: "8", min: 1},
		},
		run: runE6,
	})
}

func runE6(rc RunContext, v values, res *metrics.Result) error {
	for _, ab := range Ablations() {
		mean := res.AddSeries(ab.Name, metrics.MetricLatencyMean, "us", "rdma", "payload_kb")
		for _, kb := range v.ints("payloads_kb") {
			r, err := echoChannelCfg(echoConfig(rc, v, kb), rc.Model, ab.Mutate)
			if err != nil {
				return err
			}
			mean.Add(float64(kb), r.MeanRT.Micros())
		}
	}
	return nil
}
