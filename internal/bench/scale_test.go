package bench

import (
	"fmt"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/shard"
	"rubin/internal/transport"
)

// quickSpec is a small deployment: two connections, seed 1. Its label gives
// each run a tracer of its own, so a result carries the latency breakdown
// as an experiment's does.
func quickSpec(kind transport.Kind) deploySpec {
	return deploySpec{kind: kind, seed: 1, conns: 2, label: "closed loop"}
}

// quickCfg is instances groups of n replicas at batch 8.
func quickCfg(n, instances int) shard.Config {
	return shard.Config{Shards: instances, PBFT: pbftConfig(n, (n-1)/3, 8)}
}

// quickLoop measures the closed loop of 1 KiB puts to keys named by prefix
// on a fresh system built from s — instances groups of n replicas on one
// host set, plain PBFT at one — with window outstanding per connection,
// warmup unmeasured then requests measured.
func quickLoop(t *testing.T, s deploySpec, prefix string, n, instances, window, requests, warmup int) TrafficResult {
	t.Helper()
	d, err := deploy(s, quickCfg(n, instances), oneHostSet, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.closedLoop(prefix, window, 1<<10, requests, warmup)
	if err != nil {
		t.Fatalf("%s N=%d K=%d clients=%d: %v", s.kind, n, instances, s.conns, err)
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
			res := quickLoop(t, quickSpec(kind), "bench", n, 1, 8, 40, 5)
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
	one := quickSpec(transport.KindRDMA)
	one.conns = 1
	two := one
	two.conns = 2
	r1 := quickLoop(t, one, "bench", 4, 1, 8, 60, 10)
	r2 := quickLoop(t, two, "bench", 4, 1, 8, 60, 10)
	if r2.Goodput <= r1.Goodput {
		t.Errorf("2 clients (%.0f req/s) should out-commit 1 client (%.0f req/s)",
			r2.Goodput, r1.Goodput)
	}
}

// quickCOP measures quickLoop's default closed loop on a COP group of k
// instances over four replicas, to "cop-…" keys as E8's COP axis.
func quickCOP(t *testing.T, kind transport.Kind, k int) TrafficResult {
	t.Helper()
	return quickLoop(t, quickSpec(kind), "cop", 4, k, 8, 40, 5)
}

// TestCOPInstanceSweep asserts the K axis of E8 is measurable at every
// swept instance count and that, under this closed loop, per-request
// latency grows with K: the parallelization is not free — it pays off only
// when a single leader pipeline saturates. The breakdown series name the
// cause. The loop keeps 16 puts outstanding (2 connections × window 8);
// split over K = 4 instances, each leader holds about 4, short of the batch
// size of 8, so its batches close on the 200 µs batch timer rather than by
// size. breakdown_order rises from 22 µs at K = 1 to 151 µs at K = 4 over
// RUBIN (30 to 161 µs over NIO), while breakdown_net holds at 246 and
// 243 µs over RUBIN and rises from 446 to 544 µs over NIO: the same puts
// take more, smaller agreements.
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

// TestCOPKeysReadBackThroughTheirFrontEnd: a COP group's front-end sends a
// put and a get of one key to the instance owning the key, so every key
// the closed loop writes through a front-end reads back its value through
// it, although each instance executes into a store of its own.
func TestCOPKeysReadBackThroughTheirFrontEnd(t *testing.T) {
	const k, window, requests, warmup = 4, 8, 40, 5
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		d, err := deploy(quickSpec(kind), quickCfg(4, k), oneHostSet, model.Default())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.closedLoop("cop", window, 1<<10, requests, warmup); err != nil {
			t.Fatal(err)
		}
		want := string(make([]byte, 1<<10))
		got := map[string]string{}
		d.loop.Post(func() {
			for conn, fe := range d.fronts {
				for sent := 0; sent < requests+warmup; sent++ {
					key := fmt.Sprintf("cop-%d-%06d", conn, sent)
					fe.InvokeOp(kvstore.EncodeOp(kvstore.OpGet, key, ""), func(res []byte) { got[key] = string(res) })
				}
			}
		})
		d.loop.Run()
		missing := 0
		for _, v := range got {
			if v != want {
				missing++
			}
		}
		if n := len(d.fronts) * (requests + warmup); len(got) != n || missing > 0 {
			t.Errorf("%s K=%d: %d of %d gets answered, %d without the value put", kind, k, len(got), n, missing)
		}
	}
}
