package rubin_test

import (
	"math"
	"testing"

	"rubin/internal/metrics"
)

// TestStateSizeCheckedIn pins the headline claims of E12 against the
// checked-in BENCH_E12.json: on both transports, (1) the incremental
// checkpoint's steady serialization cost is sublinear in total state
// size — it must grow by a far smaller factor than the state itself
// across the prefill sweep; (2) a replica restarting from its cold state
// (partial: only the hot partitions diverge) recovers faster, and over
// fewer bytes, than one restarting empty (the baseline: the whole state
// crosses the wire) at the largest prefill; and (3) a steady checkpoint
// serializes less than a quarter of the state there. If a change to the
// kvstore partition layer, the checkpoint retention, or the transfer
// protocol erodes any of these, the regenerated file fails here instead
// of silently shipping.
func TestStateSizeCheckedIn(t *testing.T) {
	res, err := metrics.ReadResultFile("BENCH_E12.json")
	if err != nil {
		t.Fatal(err)
	}
	if res.Experiment != "E12" {
		t.Fatalf("experiment %q, want E12", res.Experiment)
	}
	for _, transport := range []string{"rdma-rubin", "tcp-nio"} {
		get := func(mode, metric string) *metrics.ResultSeries {
			s := res.GetSeries(mode+" "+transport, metric)
			if s == nil {
				t.Fatalf("missing series (%s %s, %s)", mode, transport, metric)
			}
			if len(s.Points) < 2 {
				t.Fatalf("series (%s %s, %s) has %d points, want a sweep", mode, transport, metric, len(s.Points))
			}
			return s
		}
		// The prefill sweep endpoints, from the series itself.
		cp := get("partial", metrics.MetricCheckpointBytes)
		small, large := cp.Points[0].X, cp.Points[len(cp.Points)-1].X
		if large < small*4 {
			t.Fatalf("%s: prefill sweep %v..%v spans < 4x — sublinearity unmeasurable", transport, small, large)
		}

		// (1) Sublinear incremental checkpoint cost: across a state-size
		// growth of large/small, steady checkpoint bytes must grow by at
		// most a quarter of the state-growth factor.
		state := get("partial", metrics.MetricStateBytes)
		stateGrowth := state.At(large) / state.At(small)
		cpGrowth := cp.At(large) / cp.At(small)
		if math.IsNaN(stateGrowth) || stateGrowth < 2 {
			t.Fatalf("%s: state grew only %.1fx across the sweep", transport, stateGrowth)
		}
		if cpGrowth > stateGrowth/4 {
			t.Errorf("%s: steady checkpoint bytes grew %.2fx while state grew %.1fx — not sublinear",
				transport, cpGrowth, stateGrowth)
		}

		// (2) Partial beats the empty-restart baseline at the largest
		// prefill: faster recovery over fewer transferred bytes.
		for _, metric := range []string{metrics.MetricRecoveryTime, metrics.MetricTransferBytes} {
			p, e := get("partial", metric).At(large), get("empty-restart", metric).At(large)
			if math.IsNaN(p) || math.IsNaN(e) || p <= 0 || e <= 0 {
				t.Fatalf("%s: %s missing a point at prefill=%v", transport, metric, large)
			}
			if p >= e {
				t.Errorf("%s: partial %s %.0f not below empty-restart %.0f at prefill=%v", transport, metric, p, e, large)
			}
		}
		// (3) The checkpoint-cost baseline is the state itself — what a
		// whole-state checkpoint would serialize every interval.
		if c, st := cp.At(large), state.At(large); c >= st/4 {
			t.Errorf("%s: steady checkpoint %.0f bytes not below a quarter of the %.0f-byte state", transport, c, st)
		}
	}
}
