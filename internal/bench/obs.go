package bench

import (
	"rubin/internal/fabric"
	"rubin/internal/obs"
	"rubin/internal/sim"
)

// benchTracer returns the tracer one measurement run should use: the
// shared span tracer when the suite runs with -trace, otherwise a
// run-local breakdown-only aggregator (spans off, so it only folds
// milestones into phase means). Either way the run label is installed,
// resetting the aggregation for this sweep point.
func benchTracer(shared *obs.Tracer, label string) *obs.Tracer {
	t := shared
	if t == nil {
		t = obs.New(obs.Options{})
	}
	t.BeginRun(label)
	return t
}

// samplePeriod is the virtual-time interval of the queue-depth, CPU and
// backlog time-series samplers attached to span-traced runs.
const samplePeriod = 250 * sim.Microsecond

// startSamplers attaches the time-series samplers of one run — every
// level-kind stat the replica hosts register: CPU utilization, msgnet queue
// bytes and (for COP) executor backlog, one series per name and node — when
// span recording is on. Samplers are pure observers on the loop: they read
// the stat tables and record samples, so they cannot perturb the run being
// measured, and the sampler group stops re-arming once only its own ticks
// remain (the loop still drains).
func startSamplers(tr *obs.Tracer, loop *sim.Loop, hosts []*fabric.Node) {
	if !tr.SpansEnabled() {
		return
	}
	g := obs.NewSamplerGroup(loop)
	g.Every(samplePeriod, func(now sim.Time) {
		for _, node := range hosts {
			node.EachStat(func(name string, kind fabric.StatKind, v float64) {
				if kind == fabric.StatLevel {
					tr.Sample(name, node.Name(), now, v)
				}
			})
		}
	})
}
