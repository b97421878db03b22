package bench

import (
	"bytes"
	"testing"

	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// tinyE10Context shrinks E10 below quick mode while keeping both
// transports, a multi-shard point and a cross-shard share on their real
// code paths.
func tinyE10Context() RunContext {
	rc := DefaultRunContext()
	rc.Quick = true
	rc.Seed = 11
	rc.Knobs = map[string]string{
		"shards": "1,2", "cross_pcts": "0,25",
		"users": "8", "conns": "2", "keys": "48", "ops": "40", "warmup": "5",
		"txn_pct": "30",
	}
	return rc
}

// TestE10SameSeedRunsAreByteIdentical mirrors the registry determinism
// test for the shard scale-out study: two same-seed runs must marshal
// to byte-identical JSON, and every sweep combo must carry the full
// percentile bundle plus the committed-goodput scaling series.
func TestE10SameSeedRunsAreByteIdentical(t *testing.T) {
	rc := tinyE10Context()
	first, err := Run("E10", rc)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Run("E10", rc)
	if err != nil {
		t.Fatal(err)
	}
	b1, err := first.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := second.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("two seed-11 E10 runs marshal differently")
	}
	for _, name := range []string{
		"scale cross=0% RUBIN", "scale cross=25% RUBIN",
		"scale cross=0% NIO", "scale cross=25% NIO",
	} {
		for _, metric := range []string{
			metrics.MetricLatencyP50, metrics.MetricGoodput,
			metrics.MetricCommittedGoodput,
		} {
			s := first.GetSeries(name, metric)
			if s == nil {
				t.Fatalf("missing series (%s, %s)", name, metric)
			}
			if len(s.Points) != 2 || s.Points[0].Y <= 0 {
				t.Fatalf("series (%s, %s) carries no positive point per shard count", name, metric)
			}
		}
		// Cross-shard transactions actually flowed on the S=2 point of
		// the cross>0 sweeps — the 2PC path was exercised, not skipped.
		if s := first.GetSeries(name, metrics.MetricCrossShardTxns); s == nil {
			t.Fatalf("missing series (%s, cross_shard_txns)", name)
		} else if name == "scale cross=25% RUBIN" && s.Points[1].Y == 0 {
			t.Fatalf("series (%s): no transactions went through 2PC at S=2", name)
		}
	}
}

// TestRunShardTrafficCrossShard drives a transaction-heavy workload with
// a high cross-shard share through a 4-shard deployment, as an E10 point
// does: every point must pass the atomicity + linearizability check
// inside runWorkload, and the counters must show 2PC happened.
func TestRunShardTrafficCrossShard(t *testing.T) {
	pools, err := shardPools(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := newShards(trafficSpec(transport.KindRDMA, 2, 7), 4, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.runWorkload(workload.Config{
		Users: 8, Keys: workload.NewUniform(64), ValueSize: 16,
		Ops: 60, Warmup: 5,
		Mix:     workload.Mix{ReadPct: 20, WritePct: 20, DeletePct: 5, ScanPct: 5, TxnPct: 50},
		TxnPick: crossPick(pools, 80),
		Arrival: workload.Closed(1, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed != 65 || r.HistoryOps != 65 {
		t.Fatalf("completed %d, history %d, want 65", r.Completed, r.HistoryOps)
	}
	if r.Stats["shard.cross_shard_txns"] == 0 {
		t.Fatal("no transactions went through 2PC despite an 80% cross-shard share")
	}
	if r.Goodput <= 0 || r.P50 <= 0 || r.P999 < r.P50 {
		t.Fatalf("implausible result %+v", r)
	}
	if r.CommittedGoodput > r.Goodput {
		t.Fatalf("committed goodput %.0f exceeds goodput %.0f", r.CommittedGoodput, r.Goodput)
	}
}

// TestE10RejectsMalformedKnobs pins the knob validation.
func TestE10RejectsMalformedKnobs(t *testing.T) {
	for name, knobs := range map[string]map[string]string{
		"cross over 100":  {"cross_pcts": "101"},
		"mix over 100":    {"read_pct": "80"}, // 80+5+5+20 > 100
		"zero txn share":  {"txn_pct": "0"},
		"conns > users":   {"users": "2", "conns": "4"},
		"n below quorum":  {"n": "3"},
		"zero shards":     {"shards": "0"},
		"starved shards":  {"shards": "16", "keys": "16"},
		"unknown knob":    {"warp": "9"},
		"malformed lists": {"shards": "a,b"},
	} {
		rc := tinyE10Context()
		for k, v := range knobs {
			rc.Knobs[k] = v
		}
		if _, err := Run("E10", rc); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
