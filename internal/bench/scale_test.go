package bench

import (
	"testing"

	"rubin/internal/model"
	"rubin/internal/transport"
)

// quickSpec is a small deployment of n replicas: batch 8, two connections,
// seed 1. Its label gives each run a tracer of its own, so a result carries
// the latency breakdown as an experiment's does.
func quickSpec(kind transport.Kind, n int) deploySpec {
	return deploySpec{kind: kind, pbft: pbftConfig(n, (n-1)/3, 8), seed: 1, conns: 2, label: "closed loop"}
}

// quickLoop measures the closed loop of 1 KiB puts on a fresh system built
// from s — plain PBFT at instances 0, else a COP group of that many — with
// window outstanding per connection, warmup unmeasured then requests
// measured.
func quickLoop(t *testing.T, s deploySpec, instances, window, requests, warmup int) TrafficResult {
	t.Helper()
	d, err := newAgreement(s, instances, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.closedLoop(window, 1<<10, requests, warmup)
	if err != nil {
		t.Fatalf("%s N=%d K=%d clients=%d: %v", s.kind, s.pbft.N, instances, s.conns, err)
	}
	return r
}

// TestBFTScalesWithN asserts the N axis of E8 works at all swept sizes and
// that agreement latency grows with the cluster size (quadratic message
// complexity): N=10 must be slower than N=4 on both transports.
func TestBFTScalesWithN(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		lats := map[int]float64{}
		for _, n := range []int{4, 7, 10} {
			res := quickLoop(t, quickSpec(kind, n), 0, 8, 40, 5)
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
	one := quickSpec(transport.KindRDMA, 4)
	one.conns = 1
	two := one
	two.conns = 2
	r1 := quickLoop(t, one, 0, 8, 60, 10)
	r2 := quickLoop(t, two, 0, 8, 60, 10)
	if r2.Goodput <= r1.Goodput {
		t.Errorf("2 clients (%.0f req/s) should out-commit 1 client (%.0f req/s)",
			r2.Goodput, r1.Goodput)
	}
}

// quickCOP measures quickLoop's default closed loop on a COP group of k
// instances over four replicas.
func quickCOP(t *testing.T, kind transport.Kind, k int) TrafficResult {
	t.Helper()
	return quickLoop(t, quickSpec(kind, 4), k, 8, 40, 5)
}

// TestCOPInstanceSweep asserts the K axis of E8 is measurable at every
// swept instance count and that, under this closed loop, per-request
// latency grows with K: the parallelization is not free — it pays off only
// when a single leader pipeline saturates. The breakdown series name the
// cause. The loop keeps 16 puts outstanding (2 connections × window 8);
// split over K = 4 instances, each leader holds about 4, short of the batch
// size of 8, so its batches close on the 200 µs batch timer rather than by
// size. breakdown_order rises from 22 µs at K = 1 to 134 µs at K = 4 over
// RUBIN (30 to 151 µs over NIO), and breakdown_net from 246 to 269 µs
// (446 to 689 µs): the same puts take more, smaller agreements.
func TestCOPInstanceSweep(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		lats := map[int]float64{}
		for _, k := range []int{1, 2, 4} {
			r := quickCOP(t, kind, k)
			if r.Mean <= 0 || r.Goodput <= 0 || r.Completed == 0 {
				t.Fatalf("%s K=%d: degenerate result %+v", kind, k, r)
			}
			lats[k] = r.Mean.Micros()
		}
		if lats[4] <= lats[1] {
			t.Errorf("%s: K=4 latency (%.1fus) should exceed K=1 (%.1fus) with under-filled batches",
				kind, lats[4], lats[1])
		}
	}
}

// TestCOPFasterOverRUBIN extends the paper's claim to the parallelized
// system: COP ordering commits faster over RUBIN than over the NIO stack.
func TestCOPFasterOverRUBIN(t *testing.T) {
	r := quickCOP(t, transport.KindRDMA, 4)
	n := quickCOP(t, transport.KindTCP, 4)
	if r.Mean >= n.Mean {
		t.Errorf("COP latency over RUBIN (%v) should beat NIO (%v)", r.Mean, n.Mean)
	}
}
