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
	"rubin/internal/reptor"
	"rubin/internal/shard"
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// frontEnd is what one client connection of any deployment exposes to
// the harness: *reptor.Client and *shard.Router as they are, a plain PBFT
// client through plainClient.
type frontEnd interface {
	InvokeOp(op []byte, done func([]byte)) string
	Outstanding() int
}

// plainClient is the one-partition front-end: every key lives in the one
// group, so the routing plan only decides read path or ordered path.
type plainClient struct{ *pbft.Client }

func (c plainClient) InvokeOp(op []byte, done func([]byte)) string {
	if kvstore.PlanOp(op, 1).Read {
		return c.InvokeRead(op, done)
	}
	return c.Invoke(op, done)
}

// deploySpec is what every replicated-system run builds from: S shards ×
// K instances × N replicas on one backend, plain PBFT being S=1, K=1.
type deploySpec struct {
	kind  transport.Kind
	pbft  pbft.Config
	seed  int64
	conns int // client connections (front-ends)
	// label names the run in the tracer; "" leaves the run untraced (the
	// fault-timeline experiments E7/E12 measure at the client only).
	label string
	trace *obs.Tracer // shared -trace tracer, or nil for a run-local one
	// readTimeout, when positive, enables the read fast path on every
	// plain PBFT front-end with this fallback timeout.
	readTimeout sim.Time
	// app overrides the per-replica state machine (default: a fresh
	// kvstore per replica).
	app func(i int) pbft.Application
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

func (s deploySpec) appFactory() func(int) pbft.Application {
	if s.app != nil {
		return s.app
	}
	return func(int) pbft.Application { return kvstore.New() }
}

// deployment is one system under test, built and ready for load: the
// loop to drive, the simulated world whose stat tables say what happened,
// one front-end per connection to submit through, and the end-of-run
// health checks. The three constructors differ only in what they build.
type deployment struct {
	loop *sim.Loop
	tr   *obs.Tracer // nil for untraced runs
	nw   *fabric.Network
	seed int64 // the spec's, which also seeds runWorkload's load
	// hosts are the replica machines: the network's nodes as the started
	// system left them, before the first front-end machine joined.
	hosts  []*fabric.Node
	fronts []frontEnd
	// submit sends raw bytes down connection conn's default route with no
	// kvstore routing — what putLoop drives: E8's COP axis routes by hash
	// of the bytes (reptor.Client.Invoke), not by key. nil for sharded
	// deployments, which have no default route.
	submit workload.Invoker

	cluster *pbft.Cluster   // plain PBFT only: fault-injection and replica-probe handle
	routers []*shard.Router // sharded only: 2PC protocol errors

	// The agreement oracle (agree.go): a ledger per PBFT group — the
	// cluster, each shard, each COP instance — and the first disagreement
	// one saw.
	ledgers      []*ledger
	disagreement error
	cop          bool // a COP group: closedLoop's keys read "cop-…"
}

// up brings a built system to the ready state in the one order every run
// shares: start it, give its world the run's tracer (after set-up, so
// connection establishment is not traced), add one front-end per
// connection, start the samplers.
func (d *deployment) up(s deploySpec, sys interface {
	Start() error
	SetTracer(*obs.Tracer)
}, addFront func() (frontEnd, error)) error {
	if err := sys.Start(); err != nil {
		return err
	}
	d.seed, d.hosts = s.seed, d.nw.Nodes()
	if s.label != "" {
		d.tr = benchTracer(s.trace, s.label)
		sys.SetTracer(d.tr)
	}
	for i := 0; i < s.conns; i++ {
		fe, err := addFront()
		if err != nil {
			return err
		}
		d.fronts = append(d.fronts, fe)
	}
	startSamplers(d.tr, d.loop, d.hosts)
	return nil
}

// newPBFT builds a plain PBFT cluster.
func newPBFT(s deploySpec, params model.Params) (*deployment, error) {
	c, err := pbft.NewCluster(s.kind, s.pbft, params, s.seed, s.appFactory())
	if err != nil {
		return nil, err
	}
	d := &deployment{loop: c.Loop, nw: c.Network, cluster: c}
	c.OnRestart = d.watch("PBFT group", c.Replicas, c.Apps)
	d.submit = func(conn int, op []byte, done func([]byte)) string { return c.Clients[conn].Invoke(op, done) }
	return d, d.up(s, c, func() (frontEnd, error) {
		cl, err := c.AddClient()
		if err == nil && s.readTimeout > 0 {
			cl.EnableReadFastPath(c.Loop, s.readTimeout)
		}
		return plainClient{cl}, err
	})
}

// newCOP builds a Reptor COP group of the given instance count.
func newCOP(s deploySpec, instances int, params model.Params) (*deployment, error) {
	gcfg := reptor.DefaultConfig()
	gcfg.Instances, gcfg.PBFT = instances, s.pbft
	g, err := reptor.NewGroup(s.kind, gcfg, params, s.seed, s.appFactory())
	if err != nil {
		return nil, err
	}
	d := &deployment{loop: g.Loop, nw: g.Network, cop: true}
	for k, reps := range g.Instances {
		d.watch(fmt.Sprintf("COP instance %d", k), reps, g.Apps[k])
	}
	var cls []*reptor.Client
	d.submit = func(conn int, op []byte, done func([]byte)) string { return cls[conn].Invoke(op, done) }
	return d, d.up(s, g, func() (frontEnd, error) {
		cl, err := g.AddClient()
		cls = append(cls, cl)
		return cl, err
	})
}

// newAgreement builds the one-keyspace system of E8 and E9: instances 0
// is a plain PBFT cluster, K a COP group of K instances.
func newAgreement(s deploySpec, instances int, params model.Params) (*deployment, error) {
	if instances == 0 {
		return newPBFT(s, params)
	}
	return newCOP(s, instances, params)
}

// newShards builds a sharded deployment of independent PBFT groups, one
// router per connection.
func newShards(s deploySpec, shards int, params model.Params) (*deployment, error) {
	scfg := shard.DefaultConfig()
	scfg.Shards, scfg.PBFT = shards, s.pbft
	dep, err := shard.New(s.kind, scfg, params, s.seed)
	if err != nil {
		return nil, err
	}
	d := &deployment{loop: dep.Loop, nw: dep.Network}
	for s, c := range dep.Clusters {
		c.OnRestart = d.watch(fmt.Sprintf("shard %d", s), c.Replicas, c.Apps)
	}
	return d, d.up(s, dep, func() (frontEnd, error) {
		r, err := dep.AddRouter()
		d.routers = append(d.routers, r)
		return r, err
	})
}

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
// mesh, no inbound frame rejected — no front-end may still hold an
// invocation, no router may have seen a 2PC protocol error, and the
// replicas must agree (see agreement).
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
	for i, r := range d.routers {
		if err := r.Errs(); err != nil {
			return fmt.Errorf("bench: router %d: %w", i, err)
		}
	}
	for i, fe := range d.fronts {
		if n := fe.Outstanding(); n != 0 {
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
	for _, fe := range d.fronts {
		if pc, ok := fe.(plainClient); ok {
			pc.SetReadPathHook(drv.NotePath)
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
// connection keeps window puts of payload bytes outstanding through
// submit. next names the key of a connection's sent-th put, or stops that
// connection's refill; completed sees every reply with its latency and
// says whether it counts as measured. The caller runs the loop.
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
			id = d.submit(ci, kvstore.EncodeOp(kvstore.OpPut, key, value), func([]byte) {
				measured := completed(ci, loop.Now()-t0)
				if id != "" {
					tr.Mark(obs.Return, id, loop.Now())
					tr.Finish(id, measured)
				}
				sendOne()
			})
			// Safe after the submit: replies cross the simulated network,
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
// measured send to the last measured reply across all connections. A COP
// group routes each put by hash of its bytes (submit), so adding instances
// scales the ordering pipeline — the Middleware '15 parallelization the
// paper targets RUBIN at.
func (d *deployment) closedLoop(window, payload, requests, warmup int) (TrafficResult, error) {
	keyPrefix := "bench"
	if d.cop {
		keyPrefix = "cop"
	}
	rec := metrics.NewRecorder()
	perConn := requests + warmup
	done, finished := make([]int, len(d.fronts)), 0
	var startAt, endAt sim.Time // first measured send, last measured reply
	started := false
	d.putLoop(window, payload, func(conn, sent int) (string, bool) {
		if sent >= perConn {
			return "", false
		}
		if sent == warmup && !started {
			startAt, started = d.loop.Now(), true
		}
		return fmt.Sprintf("%s-%d-%06d", keyPrefix, conn, sent), true
	}, func(conn int, latency sim.Time) bool {
		done[conn]++
		finished++
		if done[conn] <= warmup {
			return false
		}
		rec.Record(latency)
		endAt = d.loop.Now()
		return true
	})
	d.loop.Run()
	if want := perConn * len(d.fronts); finished != want {
		return TrafficResult{}, fmt.Errorf("bench: completed %d of %d requests", finished, want)
	}
	if err := d.check(); err != nil {
		return TrafficResult{}, err
	}
	r := d.result(rec)
	r.Goodput, r.Completed = metrics.Throughput(rec.Count(), endAt-startAt), rec.Count()
	return r, nil
}
