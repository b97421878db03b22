package bench

import (
	"fmt"
	"math/rand"

	"rubin/internal/kvstore"
	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/obs"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// ShardTrafficConfig parameterizes one point of experiment E10: a mixed
// workload (single-key operations, scans and multi-key transactions)
// driven through routers against a sharded deployment of S independent
// consensus groups. CrossPct controls what share of the transactions is
// forced to span two shards — those commit through 2PC over consensus —
// while the rest stay on one shard's one-phase fast path. Every
// operation is recorded and the history must pass the atomicity plus
// per-key linearizability check, so each E10 point doubles as a
// correctness proof of the sharded commit path.
type ShardTrafficConfig struct {
	Kind      transport.Kind
	Shards    int
	N, F      int
	Users     int // logical users
	Conns     int // routers the users share
	Keys      int // keyspace size
	ValueSize int // written-value padding, bytes
	Ops       int // measured operations
	Warmup    int // unmeasured leading operations
	Mix       workload.Mix
	CrossPct  int // share of transactions forced cross-shard, percent
	Zipf100   int // Zipf theta ×100 over the keyspace; 0 = uniform
	Arrival   workload.Arrival
	Seed      int64
	Trace     *obs.Tracer
}

// shardPools groups the workload's key names by owning shard. Every
// shard must own at least two keys (a transaction needs two distinct
// same-shard keys); hash partitioning makes that overwhelmingly likely
// for keys >> shards, and the caller errors out otherwise.
func shardPools(keys, shards int) ([][]string, error) {
	pools := make([][]string, shards)
	for i := 0; i < keys; i++ {
		k := workload.KeyName(i)
		s := kvstore.PartitionKey(k, shards)
		pools[s] = append(pools[s], k)
	}
	for s, pool := range pools {
		if len(pool) < 2 {
			return nil, fmt.Errorf("bench: shard %d owns %d of %d keys; raise keys or lower shards",
				s, len(pool), keys)
		}
	}
	return pools, nil
}

// crossPick builds the transaction key picker: with probability
// CrossPct% (and more than one shard) the two keys are drawn from two
// different shards' pools, otherwise both from one shard's. The picker
// draws only from the driver's private random source, preserving run
// determinism.
func crossPick(pools [][]string, crossPct int) func(r *rand.Rand) (string, string) {
	return func(r *rand.Rand) (string, string) {
		if len(pools) > 1 && r.Intn(100) < crossPct {
			s1 := r.Intn(len(pools))
			s2 := r.Intn(len(pools) - 1)
			if s2 >= s1 {
				s2++
			}
			return pools[s1][r.Intn(len(pools[s1]))], pools[s2][r.Intn(len(pools[s2]))]
		}
		s := r.Intn(len(pools))
		pool := pools[s]
		a := r.Intn(len(pool))
		b := r.Intn(len(pool) - 1)
		if b >= a {
			b++
		}
		return pool[a], pool[b]
	}
}

// RunShardTraffic drives one workload configuration against a sharded
// deployment to completion, verifies the run was healthy (no send
// faults, no dangling invocations, no 2PC protocol errors) and that the
// history passes the atomicity plus per-key linearizability check, and
// returns the latency and committed-throughput measurements.
func RunShardTraffic(cfg ShardTrafficConfig, params model.Params) (TrafficResult, error) {
	if cfg.CrossPct < 0 || cfg.CrossPct > 100 {
		return TrafficResult{}, fmt.Errorf("bench: cross-shard share %d%% out of range", cfg.CrossPct)
	}
	pools, err := shardPools(cfg.Keys, cfg.Shards)
	if err != nil {
		return TrafficResult{}, err
	}
	d, err := newShards(deploySpec{
		kind: cfg.Kind, pbft: pbftConfig(cfg.N, cfg.F, 0), seed: cfg.Seed, conns: cfg.Conns,
		label: fmt.Sprintf("E10 S=%d cross=%d%% %s N=%d users=%d conns=%d seed=%d",
			cfg.Shards, cfg.CrossPct, cfg.Kind, cfg.N, cfg.Users, cfg.Conns, cfg.Seed),
		trace: cfg.Trace,
	}, cfg.Shards, params)
	if err != nil {
		return TrafficResult{}, err
	}
	wcfg := trafficWorkload(cfg.Users, cfg.Conns, cfg.Keys, cfg.ValueSize,
		cfg.Ops, cfg.Warmup, cfg.Zipf100, cfg.Mix, cfg.Arrival, cfg.Seed)
	wcfg.TxnPick = crossPick(pools, cfg.CrossPct)
	return d.runWorkload(wcfg)
}

// ---------------------------------------------------------------------------
// Registry entry: E10 (shard scale-out under an atomicity oracle).
// ---------------------------------------------------------------------------

func init() {
	Register(Experiment{
		Name:   "E10",
		Title:  "shard scale-out: committed throughput vs shard count and cross-shard transaction share",
		Figure: "beyond the paper: keyspace partitioning over independent consensus groups with 2PC-over-consensus",
		// The full-mode load (users, conns) saturates every shard up to
		// S=8: each replica's application thread is 0.90–1.0 busy over the
		// measured window on both stacks. It does not saturate S shards S
		// times over: a shard carrying a share of the load bundles fewer
		// messages per transport message, so each request costs it more
		// (ROADMAP O31). 16 routers keep the front-end off the critical
		// path through S=4 (the busiest router thread 0.77 busy); at S=8
		// over rdma-rubin one is 0.97 busy beside the shards.
		knobs: []knob{
			{name: "shards", def: "1,2,4,8", quick: "1,2", min: 1, list: true},
			{name: "cross_pcts", def: "0,1,10", quick: "0,10", list: true}, // cross-shard transaction shares, percent
			{name: "n", def: "4", min: 4},                                  // 3f+1
			{name: "users", def: "512", quick: "24", min: 1},
			{name: "conns", def: "16", quick: "2", min: 1},
			{name: "keys", def: "256", quick: "64", min: 1},
			{name: "ops", def: "1500", quick: "60", min: 1},
			{name: "warmup", def: "150", quick: "10"},
			{name: "value_bytes", def: "128"},
			{name: "window", def: "1", min: 1}, // closed-loop outstanding per user
			{name: "read_pct", def: "40"},
			{name: "scan_pct", def: "5"},
			{name: "delete_pct", def: "5"},
			{name: "txn_pct", def: "20", min: 1},
		},
		check: func(v values) error {
			if v.int("users") < v.int("conns") {
				return fmt.Errorf("need conns <= users, got %d/%d", v.int("conns"), v.int("users"))
			}
			if sum := v.int("read_pct") + v.int("scan_pct") + v.int("delete_pct") + v.int("txn_pct"); sum > 100 {
				return fmt.Errorf("mix read+scan+delete+txn = %d exceeds 100", sum)
			}
			if c := v.max("cross_pcts"); c > 100 {
				return fmt.Errorf("cross-shard share %d%% out of range", c)
			}
			// Every shard of the largest deployment must own at least two
			// keys (see shardPools); fail at knob time, not mid-sweep.
			_, err := shardPools(v.int("keys"), v.max("shards"))
			return err
		},
		run: runE10,
	})
}

func runE10(rc RunContext, v values, res *metrics.Result) error {
	mix := workload.Mix{
		ReadPct: v.int("read_pct"), ScanPct: v.int("scan_pct"),
		DeletePct: v.int("delete_pct"), TxnPct: v.int("txn_pct"),
	}
	mix.WritePct = 100 - mix.ReadPct - mix.ScanPct - mix.DeletePct - mix.TxnPct
	for _, kind := range e8Transports {
		for _, cross := range v.ints("cross_pcts") {
			name := fmt.Sprintf("scale cross=%d%% %s", cross, e8Label(kind))
			ss := addTrafficSeries(res, name, string(kind), "shards", shardColumns...)
			for _, shards := range v.ints("shards") {
				cfg := ShardTrafficConfig{
					Kind: kind, Shards: shards,
					N: v.int("n"), F: (v.int("n") - 1) / 3,
					Users: v.int("users"), Conns: v.int("conns"), Keys: v.int("keys"),
					ValueSize: v.int("value_bytes"), Ops: v.int("ops"), Warmup: v.int("warmup"),
					Mix: mix, CrossPct: cross,
					Arrival: workload.Closed(v.int("window"), 0),
					Seed:    rc.Seed, Trace: rc.Trace,
				}
				r, err := RunShardTraffic(cfg, rc.Model)
				if err != nil {
					return fmt.Errorf("shards=%d cross=%d %s: %w", shards, cross, kind, err)
				}
				ss.observe(float64(shards), r)
			}
		}
	}
	return nil
}
