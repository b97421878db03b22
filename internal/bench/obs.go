package bench

import (
	"rubin/internal/msgnet"
	"rubin/internal/obs"
	"rubin/internal/reptor"
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

// startSamplers attaches the time-series samplers of one run — per-node
// msgnet queue bytes, per-node CPU utilization and (for COP) per-node
// executor backlog — when span recording is on. Samplers are pure
// observers on the loop: they read counters and record samples, so they
// cannot perturb the run being measured, and the sampler group stops
// re-arming once only its own ticks remain (the loop still drains).
func startSamplers(tr *obs.Tracer, loop *sim.Loop, meshes []*msgnet.Mesh, execs []*reptor.Executor) {
	if !tr.SpansEnabled() {
		return
	}
	g := obs.NewSamplerGroup(loop)
	g.Every(samplePeriod, func(now sim.Time) {
		for _, mesh := range meshes {
			node := mesh.Node()
			tr.Sample("msgnet_queue_bytes", node.Name(), now, float64(mesh.QueueBytes()))
			tr.Sample("cpu_util", node.Name(), now, node.CPU.Utilization())
		}
		for i, ex := range execs {
			tr.Sample("executor_backlog", meshes[i].Node().Name(), now, float64(ex.Backlog()))
		}
	})
}
