package bench

import (
	"testing"

	"rubin/internal/model"
	"rubin/internal/transport"
)

// quickBFTN returns a small closed-loop config for an N-replica cluster.
func quickBFTN(kind transport.Kind, n int) ClosedLoopConfig {
	return ClosedLoopConfig{
		Kind: kind, Payload: 1 << 10, N: n, F: (n - 1) / 3,
		Requests: 40, Warmup: 5, Window: 8, Batch: 8, Clients: 2, Seed: 1,
	}
}

// TestBFTScalesWithN asserts the N axis of E8 works at all swept sizes and
// that agreement latency grows with the cluster size (quadratic message
// complexity): N=10 must be slower than N=4 on both transports.
func TestBFTScalesWithN(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		lats := map[int]float64{}
		for _, n := range []int{4, 7, 10} {
			res, err := RunClosedLoop(quickBFTN(kind, n), model.Default())
			if err != nil {
				t.Fatalf("%s N=%d: %v", kind, n, err)
			}
			if res.Mean <= 0 || res.Goodput <= 0 {
				t.Fatalf("%s N=%d: degenerate result %+v", kind, n, res)
			}
			if faults := res.Stats["pbft.send_faults"]; faults != 0 {
				t.Errorf("%s N=%d: %v send faults on a healthy network", kind, n, faults)
			}
			lats[n] = res.Mean.Micros()
		}
		if lats[10] <= lats[4] {
			t.Errorf("%s: N=10 latency (%.1fus) should exceed N=4 (%.1fus)", kind, lats[10], lats[4])
		}
	}
}

// TestBFTMultiClientAddsLoad asserts the closed-loop client count is a real
// load axis: two clients commit more requests per second than one.
func TestBFTMultiClientAddsLoad(t *testing.T) {
	one := quickBFTN(transport.KindRDMA, 4)
	one.Requests, one.Warmup, one.Clients = 60, 10, 1
	two := one
	two.Clients = 2
	r1, err := RunClosedLoop(one, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunClosedLoop(two, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Goodput <= r1.Goodput {
		t.Errorf("2 clients (%.0f req/s) should out-commit 1 client (%.0f req/s)",
			r2.Goodput, r1.Goodput)
	}
}

func quickCOP(kind transport.Kind, k int) ClosedLoopConfig {
	cfg := quickBFTN(kind, 4)
	cfg.Instances = k
	return cfg
}

// TestCOPInstanceSweep asserts the K axis of E8 is measurable at every
// swept instance count and reproduces the merge-barrier effect documented
// in docs/EXPERIMENTS.md: under closed-loop load, per-request latency grows
// with K (the deterministic round-robin merge stalls on holes that
// heartbeat fills resolve), so the parallelization is not free — it pays
// off only when a single leader pipeline saturates.
func TestCOPInstanceSweep(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		lats := map[int]float64{}
		for _, k := range []int{1, 2, 4} {
			r, err := RunClosedLoop(quickCOP(kind, k), model.Default())
			if err != nil {
				t.Fatalf("%s K=%d: %v", kind, k, err)
			}
			if r.Mean <= 0 || r.Goodput <= 0 || r.Completed == 0 {
				t.Fatalf("%s K=%d: degenerate result %+v", kind, k, r)
			}
			lats[k] = r.Mean.Micros()
		}
		if lats[4] <= lats[1] {
			t.Errorf("%s: K=4 latency (%.1fus) should exceed K=1 (%.1fus) under the merge barrier",
				kind, lats[4], lats[1])
		}
	}
}

// TestCOPFasterOverRUBIN extends the paper's claim to the parallelized
// system: COP ordering commits faster over RUBIN than over the NIO stack.
func TestCOPFasterOverRUBIN(t *testing.T) {
	r, err := RunClosedLoop(quickCOP(transport.KindRDMA, 4), model.Default())
	if err != nil {
		t.Fatal(err)
	}
	n, err := RunClosedLoop(quickCOP(transport.KindTCP, 4), model.Default())
	if err != nil {
		t.Fatal(err)
	}
	if r.Mean >= n.Mean {
		t.Errorf("COP latency over RUBIN (%v) should beat NIO (%v)", r.Mean, n.Mean)
	}
}
