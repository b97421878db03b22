package bench

import (
	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/rubin"
)

// Ablation names one configuration variant of the RUBIN channel; the
// ablation bench (experiment E6) quantifies each Section IV optimization
// by disabling it in isolation.
type Ablation struct {
	Name   string
	Mutate func(*model.Params, *rubin.Config)
}

// Ablations returns the studied variants.
func Ablations() []Ablation {
	return []Ablation{
		{Name: "full (all optimizations)", Mutate: nil},
		{Name: "no selective signaling", Mutate: func(p *model.Params, c *rubin.Config) {
			c.SignalInterval = 1
		}},
		{Name: "no doorbell batching", Mutate: func(p *model.Params, c *rubin.Config) {
			c.PostBatch = 1
		}},
		{Name: "no inline sends", Mutate: func(p *model.Params, c *rubin.Config) {
			c.Inline = false
		}},
		{Name: "zero-copy receive (projected)", Mutate: func(p *model.Params, c *rubin.Config) {
			c.ZeroCopyReceive = true
		}},
	}
}

// runAblation measures the channel echo under one variant/payload point.
func runAblation(ab Ablation, cfg EchoConfig, params model.Params) (EchoResult, error) {
	p := params
	var mutate func(*rubin.Config)
	if ab.Mutate != nil {
		mutate = func(c *rubin.Config) { ab.Mutate(&p, c) }
	}
	return echoChannelCfg(cfg, p, mutate)
}

// AblationTable measures the channel echo under every variant for the
// given payloads, reporting mean round-trip latency in µs.
func AblationTable(payloadsKB []int, params model.Params) (*metrics.Table, error) {
	tab := metrics.NewTable("E6: RUBIN channel ablations", "payload_kb", "latency µs")
	for _, ab := range Ablations() {
		series := tab.AddSeries(ab.Name)
		for _, kb := range payloadsKB {
			cfg := DefaultEchoConfig(kb << 10)
			// Saturate the selector thread so per-message overheads are
			// on the critical path (idle gaps would otherwise hide them).
			cfg.Window = 8
			res, err := runAblation(ab, cfg, params)
			if err != nil {
				return nil, err
			}
			series.Add(float64(kb), res.MeanRT.Micros())
		}
	}
	return tab, nil
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
			cfg := EchoConfig{Payload: kb << 10, Messages: v.int("messages"), Warmup: v.int("warmup"),
				Window: v.int("window"), Seed: rc.Seed}
			r, err := runAblation(ab, cfg, rc.Model)
			if err != nil {
				return err
			}
			mean.Add(float64(kb), r.MeanRT.Micros())
		}
	}
	return nil
}
