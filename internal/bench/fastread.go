package bench

import (
	"fmt"

	"rubin/internal/metrics"
	"rubin/internal/sim"
	"rubin/internal/transport"
	"rubin/internal/workload"
)

// ---------------------------------------------------------------------------
// Registry entry: E11 (read-only fast path × batch size study).
// ---------------------------------------------------------------------------
//
// E11 measures the PBFT read-only optimization (Castro & Liskov §4.4):
// clients multicast side-effect-free requests to every replica, replicas
// execute them tentatively against their last-executed state, and the
// client accepts on 2F+1 matching replies — skipping agreement entirely.
// Two sweeps, each run with the fast path on and off on both transports:
//
//   - mix: read share of a closed-loop workload (x = read_pct). The
//     fast path's payoff should grow with the read share.
//   - batch: agreement batch size at the highest read share (x = batch).
//     Batching amortizes agreement for writes; the fast path removes
//     agreement for reads. The sweep shows how much of the fast path's
//     win batching alone can (and cannot) recover.
//
// Every point runs under the workload history oracle — a fast-path read
// returning a stale or unordered value fails the per-key
// linearizability check and aborts the experiment. fp=on points also
// export the fast-read and fallback counters so a run that silently
// degraded to the ordered path is visible in the data.

func init() {
	Register(Experiment{
		Name:   "E11",
		Title:  "read-only fast path: read share and batch size under the linearizability oracle",
		Figure: "beyond the paper: Castro-Liskov read optimization on the RDMA transport study",
		knobs: []knob{
			{name: "read_pcts", def: "50,90,99", quick: "90", list: true},    // read shares of the mix sweep
			{name: "batches", def: "1,8,32", quick: "8", min: 1, list: true}, // agreement batch sizes of the batch sweep
			{name: "n", def: "4", min: 4},                                    // 3f+1
			{name: "users", def: "96", quick: "24", min: 1},
			{name: "conns", def: "4", quick: "2", min: 1},
			{name: "keys", def: "128", quick: "32", min: 10},
			{name: "ops", def: "300", quick: "60", min: 1},
			{name: "warmup", def: "30", quick: "10"},
			{name: "value_bytes", def: "128"},
			{name: "window", def: "1", min: 1},             // closed-loop outstanding per user
			{name: "read_timeout_us", def: "2000", min: 1}, // fast-read fallback timeout
		},
		check: func(v values) error {
			if v.int("users") < v.int("conns") {
				return fmt.Errorf("need conns <= users, got %d/%d", v.int("conns"), v.int("users"))
			}
			if r := v.max("read_pcts"); r > 100 {
				return fmt.Errorf("read_pcts are percentages, got %d", r)
			}
			return nil
		},
		run: runE11,
	})
}

// e11Check enforces the invariants every E11 point must satisfy beyond
// runWorkload's own health and linearizability checks: a fast-path-on
// point with reads in the mix must actually serve fast reads (a run
// that silently degraded to ordering is a failed experiment, not a
// slow one), and a fast-path-off point must never use it.
func e11Check(r TrafficResult, fast bool, readPct int) error {
	reads, fallbacks := r.Stats["pbft.fast_reads"], r.Stats["pbft.fast_read_fallbacks"]
	if !fast {
		if reads != 0 || fallbacks != 0 {
			return fmt.Errorf("bench: fast path off but served %v fast reads, %v fallbacks", reads, fallbacks)
		}
		return nil
	}
	if readPct > 0 && reads == 0 {
		return fmt.Errorf("bench: fast path on with %d%% reads served none fast (%v fallbacks)", readPct, fallbacks)
	}
	return nil
}

func runE11(rc RunContext, v values, res *metrics.Result) error {
	n, users, conns := v.int("n"), v.int("users"), v.int("conns")
	// The batch sweep pins the read share at the mix sweep's highest —
	// where the fast path has the most agreement work to remove.
	topRead := v.max("read_pcts")
	// Sweep 1: read share at the default batch size (batch 0 keeps it).
	// Sweep 2: agreement batch size at the highest read share.
	type sweep struct {
		prefix, xLabel string
		xs             []int
		at             func(x int) (readPct, batch int)
	}
	sweeps := []sweep{
		{"mix", "read_pct", v.ints("read_pcts"), func(readPct int) (int, int) { return readPct, 0 }},
		{"batch", "batch", v.ints("batches"), func(batch int) (int, int) { return topRead, batch }},
	}
	// point measures one x of a sweep on a fresh cluster, its fast path
	// on with the knob's timeout or off at 0.
	point := func(sw sweep, x int, kind transport.Kind, fp string, timeout sim.Time) (TrafficResult, error) {
		readPct, batch := sw.at(x)
		d, err := newPBFT(deploySpec{
			kind: kind, pbft: pbftConfig(n, (n-1)/3, batch), seed: rc.Seed, conns: conns, trace: rc.Trace,
			label:       fmt.Sprintf("E11 %s=%d %s %s N=%d users=%d conns=%d seed=%d", sw.xLabel, x, fp, kind, n, users, conns, rc.Seed),
			readTimeout: timeout,
		}, rc.Model)
		if err != nil {
			return TrafficResult{}, err
		}
		r, err := d.runWorkload(workload.Config{
			Users: users, Ops: v.int("ops"), Warmup: v.int("warmup"),
			Keys: keyChooser(v.int("keys"), 99), Mix: e9Mix(readPct, 0, 0), Arrival: workload.Closed(v.int("window"), 0),
			ValueSize: v.int("value_bytes"),
		})
		if err == nil {
			err = e11Check(r, timeout > 0, readPct)
		}
		return r, err
	}
	for _, sw := range sweeps {
		for _, kind := range e8Transports {
			for _, fast := range []bool{true, false} {
				fp, cols, timeout := "fp=off", []column{colPeakQueue}, sim.Time(0)
				if fast {
					fp, cols = "fp=on", append(cols, fastColumns...)
					timeout = sim.Time(v.int("read_timeout_us")) * sim.Microsecond
				}
				ss := addTrafficSeries(res, fmt.Sprintf("%s %s %s", sw.prefix, fp, e8Label(kind)), string(kind), sw.xLabel, cols...)
				for _, x := range sw.xs {
					r, err := point(sw, x, kind, fp, timeout)
					if err != nil {
						return fmt.Errorf("%s=%d %s %s: %w", sw.xLabel, x, fp, kind, err)
					}
					ss.observe(float64(x), r)
				}
			}
		}
	}
	return nil
}
