package bench

import (
	"testing"

	"rubin/internal/auth"
	"rubin/internal/metrics"
	"rubin/internal/msgnet"
	"rubin/internal/sim"
)

// Experiment ALLOC audits the hot-path efficiency work: it measures the
// steady-state heap allocations of one operation on each of the three
// per-message layers — a msgnet Peer.Send drained to the substrate, an
// auth MAC/Verify/Authenticate, and a sim timer armed and fired — via
// testing.AllocsPerRun after warming every pool to its steady footprint.
// The numbers are properties of the code, not the machine, so the result
// file doubles as a regression baseline: the root test
// TestAllocRegressionCheckedIn re-measures in process and fails when a
// layer's allocs/op grow past the checked-in curve.
//
// Quick mode shrinks the AllocsPerRun iteration count but keeps every
// sweep point, so quick and full runs are point-for-point comparable.

// authAllocsPerOp measures the keyring hot paths of an n-replica group:
// MAC and Verify against one peer, and a full Authenticate vector.
func authAllocsPerOp(runs, n, payload int) (mac, verify, authn float64) {
	rings := auth.GenerateKeyrings(n, 1)
	msg := make([]byte, payload)
	tag := make([]byte, 0, auth.MACSize)
	for i := 0; i < 8; i++ { // warm the lazy per-peer HMAC states
		tag = append(tag[:0], rings[0].MAC(1, msg)...)
		rings[1].Verify(0, msg, tag)
		_ = rings[0].Authenticate(msg)
	}
	mac = testing.AllocsPerRun(runs, func() { _ = rings[0].MAC(1, msg) })
	verify = testing.AllocsPerRun(runs, func() { rings[1].Verify(0, msg, tag) })
	authn = testing.AllocsPerRun(runs, func() { _ = rings[0].Authenticate(msg) })
	return mac, verify, authn
}

// simTimerAllocsPerOp measures arming plus firing one timer, and arming
// plus cancelling one, against a heap already holding pending parked
// events (the realistic replica steady state: request timers, heartbeats
// and batch deadlines all outstanding at once).
func simTimerAllocsPerOp(runs, pending int) (fire, cancel float64) {
	loop := sim.NewLoop(1)
	park := sim.Time(1) << 40 // far future: parked events never run
	for i := 0; i < pending; i++ {
		loop.At(park, func() {})
	}
	var at sim.Time
	fireOne := func() {
		at += 2
		loop.At(at, func() {})
		loop.RunUntil(at)
	}
	cancelOne := func() {
		at += 2
		loop.At(at, func() {}).Cancel()
	}
	for i := 0; i < 64; i++ { // warm the event free list
		fireOne()
		cancelOne()
	}
	fire = testing.AllocsPerRun(runs, fireOne)
	cancel = testing.AllocsPerRun(runs, cancelOne)
	return fire, cancel
}

// ---------------------------------------------------------------------------
// Registry entry: ALLOC (steady-state allocations per hot-path op).
// ---------------------------------------------------------------------------

func init() {
	Register(Experiment{
		Name:   "ALLOC",
		Title:  "Steady-state heap allocations per hot-path operation (msgnet send, auth MAC, sim timers)",
		Figure: "beyond the paper: hot-path efficiency audit",
		knobs: []knob{
			{name: "runs", def: "400", quick: "60", min: 1}, // AllocsPerRun iterations
			// Whole-frame (<= one transport frame) and chunked Send payloads.
			{name: "whole_payloads", def: "256,4096,65536", min: 1, list: true},
			{name: "chunked_payloads", def: "1048576,4194304", min: 1, list: true},
			{name: "replicas", def: "4,7,16", min: 1, list: true},   // keyring group sizes
			{name: "pending", def: "1,64,1024", min: 1, list: true}, // parked timers behind the measured one
		},
		run: runAlloc,
	})
}

func runAlloc(_ RunContext, v values, res *metrics.Result) error {
	runs := v.int("runs")
	const unit = "allocs/op"

	whole := res.AddSeries("msgnet send whole", metrics.MetricAllocsPerOp, unit, "", "payload_bytes")
	for _, n := range v.ints("whole_payloads") {
		whole.Add(float64(n), msgnet.SendAllocsPerOp(runs, n))
	}
	chunked := res.AddSeries("msgnet send chunked", metrics.MetricAllocsPerOp, unit, "", "payload_bytes")
	for _, n := range v.ints("chunked_payloads") {
		chunked.Add(float64(n), msgnet.SendAllocsPerOp(runs, n))
	}

	macS := res.AddSeries("auth mac", metrics.MetricAllocsPerOp, unit, "", "replicas")
	verifyS := res.AddSeries("auth verify", metrics.MetricAllocsPerOp, unit, "", "replicas")
	authnS := res.AddSeries("auth authenticate", metrics.MetricAllocsPerOp, unit, "", "replicas")
	for _, n := range v.ints("replicas") {
		mac, verify, authn := authAllocsPerOp(runs, n, 1<<10)
		macS.Add(float64(n), mac)
		verifyS.Add(float64(n), verify)
		authnS.Add(float64(n), authn)
	}

	fireS := res.AddSeries("sim timer arm+fire", metrics.MetricAllocsPerOp, unit, "", "pending_timers")
	cancelS := res.AddSeries("sim timer arm+cancel", metrics.MetricAllocsPerOp, unit, "", "pending_timers")
	for _, n := range v.ints("pending") {
		fire, cancel := simTimerAllocsPerOp(runs, n)
		fireS.Add(float64(n), fire)
		cancelS.Add(float64(n), cancel)
	}

	res.SetConfig("method", "testing.AllocsPerRun after pool warmup; integer per-op steady state")
	return nil
}
