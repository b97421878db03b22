package bench

import (
	"fmt"
	"math/rand"

	"rubin/internal/kvstore"
	"rubin/internal/metrics"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

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
// crossPct% (and more than one shard) the two keys are drawn from two
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

// runE10 drives a mixed workload (single-key operations, scans and
// multi-key transactions) through routers against S independent consensus
// groups. A cross-shard share of the transactions spans two shards and
// commits through 2PC over consensus; the rest stay on one shard's
// one-phase path. runWorkload fails a history that is not atomic and
// linearizable per key, so each point doubles as a correctness proof of
// the sharded commit path.
func runE10(rc RunContext, v values, res *metrics.Result) error {
	n, users, conns, keys := v.int("n"), v.int("users"), v.int("conns"), v.int("keys")
	mix := workload.Mix{
		ReadPct: v.int("read_pct"), ScanPct: v.int("scan_pct"),
		DeletePct: v.int("delete_pct"), TxnPct: v.int("txn_pct"),
	}
	mix.WritePct = 100 - mix.ReadPct - mix.ScanPct - mix.DeletePct - mix.TxnPct
	// point measures one shard count at one cross-shard share.
	point := func(kind transport.Kind, shards, cross int) (TrafficResult, error) {
		pools, err := shardPools(keys, shards)
		if err != nil {
			return TrafficResult{}, err
		}
		d, err := newShards(deploySpec{
			kind: kind, pbft: pbftConfig(n, (n-1)/3, 0), seed: rc.Seed, conns: conns, trace: rc.Trace,
			label: fmt.Sprintf("E10 S=%d cross=%d%% %s N=%d users=%d conns=%d seed=%d",
				shards, cross, kind, n, users, conns, rc.Seed),
		}, shards, rc.Model)
		if err != nil {
			return TrafficResult{}, err
		}
		return d.runWorkload(workload.Config{
			Users: users, Ops: v.int("ops"), Warmup: v.int("warmup"),
			Keys: workload.NewUniform(keys), Mix: mix, Arrival: workload.Closed(v.int("window"), 0),
			ValueSize: v.int("value_bytes"), TxnPick: crossPick(pools, cross),
		})
	}
	for _, kind := range e8Transports {
		for _, cross := range v.ints("cross_pcts") {
			name := fmt.Sprintf("scale cross=%d%% %s", cross, e8Label(kind))
			ss := addTrafficSeries(res, name, string(kind), "shards", shardColumns...)
			for _, shards := range v.ints("shards") {
				r, err := point(kind, shards, cross)
				if err != nil {
					return fmt.Errorf("shards=%d cross=%d %s: %w", shards, cross, kind, err)
				}
				ss.observe(float64(shards), r)
			}
		}
	}
	return nil
}
