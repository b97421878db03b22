package bench

import (
	"slices"

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

// startSamplers attaches the time-series samplers of one run when span
// recording is on: every samplePeriod, each host's CPU, busiest
// application thread and NIC utilization over the period just ended (the
// service each delivered in it over period × servers; cpu_util, app_util
// and nic_util) and every level-kind stat the hosts register (msgnet queue
// bytes), one series per name and node. Samplers are pure observers on
// the loop: they read the resources and the stat tables and record
// samples, so they cannot perturb the run being measured, and the sampler
// group stops re-arming once only its own ticks remain (the loop still
// drains).
func startSamplers(tr *obs.Tracer, loop *sim.Loop, hosts []*fabric.Node) {
	if !tr.SpansEnabled() {
		return
	}
	meters := make([]utilMeter, len(hosts))
	for i, node := range hosts {
		meters[i].read(node, loop.Now()) // what set-up served is no period's
	}
	g := obs.NewSamplerGroup(loop)
	g.Every(samplePeriod, func(now sim.Time) {
		for i, node := range hosts {
			cpu, app, nic := meters[i].read(node, now)
			tr.Sample("cpu_util", node.Name(), now, cpu)
			tr.Sample("app_util", node.Name(), now, app)
			tr.Sample("nic_util", node.Name(), now, nic)
			node.EachStat(func(name string, kind fabric.StatKind, v float64) {
				if kind == fabric.StatLevel {
					tr.Sample(name, node.Name(), now, v)
				}
			})
		}
	})
}

// utilMeter holds the instant of a host's previous sample and what its
// CPU, its NIC and each application thread had served by then.
type utilMeter struct {
	at     sim.Time
	served []sim.Time
}

// read returns the CPU's, the busiest thread's and the NIC's utilization
// since the previous read and notes what each has served by now.
func (m *utilMeter) read(node *fabric.Node, now sim.Time) (cpu, app, nic float64) {
	rs := append([]*sim.Resource{node.CPU, node.NIC}, node.Threads()...)
	u := make([]float64, len(rs))
	for k, r := range rs {
		if k == len(m.served) {
			m.served = append(m.served, 0)
		}
		served := r.Served()
		u[k] = float64(served-m.served[k]) / (float64(now-m.at) * float64(r.Servers()))
		m.served[k] = served
	}
	m.at = now
	return u[0], slices.Max(u[2:]), u[1]
}
