package bench

import (
	"fmt"
	"maps"

	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/obs"
	"rubin/internal/pbft"
	"rubin/internal/shard"
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// deploySpec is what every replicated-system run builds from beside its
// groups: the backend, the seed, the front-ends and the tracer.
type deploySpec struct {
	kind  transport.Kind
	seed  int64
	conns int // client connections (front-ends)
	// label names the run in the tracer; "" leaves the run untraced (the
	// fault-timeline experiments E7/E12 measure at the client only).
	label string
	trace *obs.Tracer // shared -trace tracer, or nil for a run-local one
	// readTimeout, when positive, enables the read fast path on every
	// front-end with this fallback timeout.
	readTimeout sim.Time
}

// pbftConfig returns the default protocol configuration for an N-replica
// group; a positive batch overrides the default batch size.
func pbftConfig(n, f, batch int) pbft.Config {
	cfg := pbft.DefaultConfig()
	cfg.N, cfg.F = n, f
	if batch > 0 {
		cfg.BatchSize = batch
	}
	return cfg
}

// placement is where a deployment's groups run.
type placement bool

const (
	oneHostSet    placement = false // group k on every host's pillar k (shard.NewCOP)
	hostsPerGroup placement = true  // each group on hosts of its own (shard.New)
)

// deployment is one system under test, built and ready for load: the
// loop to drive, the simulated world whose stat tables say what happened,
// one router per connection to submit through, and the end-of-run health
// checks.
type deployment struct {
	loop *sim.Loop
	tr   *obs.Tracer // nil for untraced runs
	nw   *fabric.Network
	seed int64 // the spec's, which also seeds runWorkload's load
	// hosts are the replica machines: the network's nodes as the started
	// system left them, before the first front-end machine joined.
	hosts []*fabric.Node
	// groups are the PBFT groups, group 0 the fault-injection and
	// replica-probe handle of a one-group deployment.
	groups []*pbft.Cluster
	fronts []*shard.Router

	// The agreement oracle (agree.go): a ledger per group and the first
	// disagreement one saw.
	ledgers      []*ledger
	disagreement error
}

// deploy builds cfg.Shards PBFT groups over disjoint keys — on one host
// set, where one group is plain PBFT and K a COP group, or on hosts per
// group, a sharded service — and brings them to the ready state in the one
// order every run shares: start them, give their world the run's tracer
// (after set-up, so connection establishment is not traced), add one
// router per connection, start the samplers.
func deploy(s deploySpec, cfg shard.Config, place placement, params model.Params) (*deployment, error) {
	build := shard.NewCOP
	if place == hostsPerGroup {
		build = shard.New
	}
	dep, err := build(s.kind, cfg, params, s.seed)
	if err != nil {
		return nil, err
	}
	d := &deployment{loop: dep.Loop, nw: dep.Network, seed: s.seed, groups: dep.Clusters}
	for g, c := range dep.Clusters {
		d.watch(fmt.Sprintf("group %d", g), c)
	}
	if err := dep.Start(); err != nil {
		return nil, err
	}
	d.hosts = d.nw.Nodes()
	if s.label != "" {
		d.tr = benchTracer(s.trace, s.label)
		dep.SetTracer(d.tr)
	}
	for i := 0; i < s.conns; i++ {
		r, err := dep.AddRouter()
		if err != nil {
			return nil, err
		}
		if s.readTimeout > 0 {
			for _, cl := range r.Clients {
				cl.EnableReadFastPath(d.loop, s.readTimeout)
			}
		}
		d.fronts = append(d.fronts, r)
	}
	startSamplers(d.tr, d.loop, d.hosts)
	if deployed != nil {
		deployed(d)
	}
	return d, nil
}

// deployed, when set, is handed every deployment deploy builds, ready for
// load: how a test reads the stat tables of every point a suite run makes.
var deployed func(*deployment)

// stats folds the stat tables — the one place the harness does: every
// machine's counters, and for a name the replica hosts register (queue
// depth, CPU, send and receive errors) the hosts' own value, which is what
// those columns and the health gate have always meant.
func (d *deployment) stats() map[string]float64 {
	all := fabric.Fold(d.nw.Nodes()...)
	maps.Copy(all, fabric.Fold(d.hosts...))
	return all
}

// check is the end-of-run health gate. After a run on a fault-free network
// three stats must read 0 — no delivery failure surfaced to a replica or its
// mesh, no inbound frame rejected — no router may have seen a 2PC protocol
// error or still hold an invocation, and the replicas must agree (see
// agreement).
func (d *deployment) check() error {
	if err := d.agreement(); err != nil {
		return err
	}
	stats := d.stats()
	for _, name := range []string{"pbft.send_faults", "msgnet.send_errors", "msgnet.recv_errors"} {
		if v := stats[name]; v != 0 {
			return fmt.Errorf("bench: %s = %v on a healthy network", name, v)
		}
	}
	for i, r := range d.fronts {
		if err := r.Errs(); err != nil {
			return fmt.Errorf("bench: router %d: %w", i, err)
		}
		if n := r.Outstanding(); n != 0 {
			return fmt.Errorf("bench: connection %d left %d operations outstanding", i, n)
		}
	}
	return nil
}

// TrafficResult is one measurement point of a replicated-system run —
// the fixed-key closed loop (E5, E8) or a traffic experiment (E9–E11) —
// whatever the deployment shape.
type TrafficResult struct {
	P50, P90, P99, P999 sim.Time // latency percentiles, arrival to reply
	Mean                sim.Time // mean latency (the breakdown partitions it)
	Goodput             float64  // measured completions per second
	CommittedGoodput    float64  // goodput excluding aborted transactions
	Completed           int
	Aborted             int // transactions lost to no-wait conflicts
	HistoryOps          int
	// Breakdown attributes the mean latency to protocol phases;
	// Breakdown.Total equals Mean up to integer-mean rounding.
	Breakdown obs.Summary
	// Stats is the deployment's folded stat table as the run left it (see
	// deployment.stats; docs/ARCHITECTURE.md lists the names): what the
	// statColumns plot. A name the shape does not register reads 0.
	Stats map[string]float64
	// FastOps is the number of history operations the oracle saw tagged
	// as fast-path-served; the checkers treat them identically.
	FastOps int
	// LeaderCPU is the busiest replica host's CPU utilization over the
	// measured window of a closedLoop run (set-up excluded).
	LeaderCPU float64
}

// runWorkload drives one workload through the deployment's front-ends to
// completion, verifies the run was healthy (check) and the recorded
// history linearizable and atomic, and collects the result. The load's
// users share every front-end, and it draws from the deployment's seed:
// wcfg's Conns and Seed are set here.
func (d *deployment) runWorkload(wcfg workload.Config) (TrafficResult, error) {
	wcfg.Conns, wcfg.Seed = len(d.fronts), d.seed
	drv, err := workload.New(d.loop, wcfg, func(conn int, op []byte, done func([]byte)) string {
		return d.fronts[conn].InvokeOp(op, done)
	})
	if err != nil {
		return TrafficResult{}, err
	}
	drv.SetTracer(d.tr)
	for _, r := range d.fronts {
		for _, cl := range r.Clients {
			cl.SetReadPathHook(drv.NotePath)
		}
	}
	if err := drv.Run(); err != nil {
		return TrafficResult{}, err
	}
	if err := d.check(); err != nil {
		return TrafficResult{}, err
	}
	if err := drv.History().Check(); err != nil {
		return TrafficResult{}, err
	}
	r := d.result(drv.Latencies())
	r.Goodput, r.CommittedGoodput = drv.Goodput(), drv.CommittedGoodput()
	r.Completed, r.Aborted = drv.Completed(), drv.Aborted()
	r.HistoryOps, r.FastOps = drv.History().Len(), drv.History().FastOps()
	return r, nil
}

// result is the part of a measurement point every run fills alike: the
// latency statistics of its measured samples and what the deployment
// itself counted during the run.
func (d *deployment) result(rec *metrics.Recorder) TrafficResult {
	return TrafficResult{
		P50: rec.Percentile(50), P90: rec.Percentile(90),
		P99: rec.Percentile(99), P999: rec.Percentile(99.9),
		Mean:      rec.Mean(),
		Breakdown: d.tr.Summary(),
		Stats:     d.stats(),
	}
}

// putLoop is the fixed-key put loop of E5, E7, E8 and E12 — the load
// generator beside workload.Driver, for runs that count their requests
// (closedLoop), stop on the clock or lose requests to a crash: every
// connection keeps window puts of payload bytes outstanding through its
// front-end, which routes each by key. next names the key of a
// connection's sent-th put, or stops that connection's refill; completed
// sees every reply with its latency and says whether it counts as
// measured. The caller runs the loop.
func (d *deployment) putLoop(window, payload int, next func(conn, sent int) (key string, ok bool), completed func(conn int, latency sim.Time) (measured bool)) {
	loop, tr := d.loop, d.tr
	value := string(make([]byte, payload))
	for ci := range d.fronts {
		sent := 0
		var sendOne func()
		sendOne = func() {
			key, ok := next(ci, sent)
			if !ok {
				return
			}
			sent++
			t0 := loop.Now()
			var id string
			id = d.fronts[ci].InvokeOp(kvstore.EncodeOp(kvstore.OpPut, key, value), func([]byte) {
				measured := completed(ci, loop.Now()-t0)
				if id != "" {
					tr.Mark(obs.Return, id, loop.Now())
					tr.Finish(id, measured)
				}
				sendOne()
			})
			// Safe after the invoke: replies cross the simulated network,
			// so the callback cannot have fired synchronously at this event.
			if id != "" {
				tr.Mark(obs.Arrive, id, t0)
				tr.Mark(obs.Invoke, id, t0)
			}
		}
		loop.Post(func() {
			for i := 0; i < window; i++ {
				sendOne()
			}
		})
	}
}

// closedLoop measures the fixed-key closed loop of E5 and E8: every
// front-end keeps window puts of payload bytes outstanding to keys of its
// own, warmup unmeasured and then requests measured ones. Latency samples
// start after each connection's warmup, and goodput spans the first
// measured send to the last measured reply across all connections. Keys
// read "<prefix>-<connection>-<n>". A COP group's router sends each put to
// the instance owning its key, so adding instances scales the ordering
// pipeline — the Middleware '15 parallelization the paper targets RUBIN at.
func (d *deployment) closedLoop(prefix string, window, payload, requests, warmup int) (TrafficResult, error) {
	rec := metrics.NewRecorder()
	perConn := requests + warmup
	done, finished, want := make([]int, len(d.fronts)), 0, perConn*len(d.fronts)
	var startAt, endAt sim.Time // first measured send, last measured reply
	var busyAt, busyEnd []sim.Time
	d.putLoop(window, payload, func(conn, sent int) (string, bool) {
		if sent >= perConn {
			return "", false
		}
		if sent == warmup && busyAt == nil {
			startAt, busyAt = d.loop.Now(), d.cpuBusy()
		}
		return fmt.Sprintf("%s-%d-%06d", prefix, conn, sent), true
	}, func(conn int, latency sim.Time) bool {
		done[conn]++
		finished++
		if done[conn] <= warmup {
			return false
		}
		rec.Record(latency)
		endAt = d.loop.Now()
		if finished == want {
			busyEnd = d.cpuBusy()
		}
		return true
	})
	d.loop.Run()
	if finished != want {
		return TrafficResult{}, fmt.Errorf("bench: completed %d of %d requests", finished, want)
	}
	if err := d.check(); err != nil {
		return TrafficResult{}, err
	}
	r := d.result(rec)
	r.Goodput, r.Completed = metrics.Throughput(rec.Count(), endAt-startAt), rec.Count()
	cores := float64(d.nw.Params().Host.Cores)
	for i := range busyAt {
		r.LeaderCPU = max(r.LeaderCPU, float64(busyEnd[i]-busyAt[i])/(float64(endAt-startAt)*cores))
	}
	return r, nil
}

// cpuBusy reads the busy time of every replica host's CPU.
func (d *deployment) cpuBusy() []sim.Time {
	busy := make([]sim.Time, len(d.hosts))
	for i, h := range d.hosts {
		busy[i] = h.CPU.BusyTotal()
	}
	return busy
}
