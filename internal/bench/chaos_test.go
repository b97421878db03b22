package bench

import (
	"sync"
	"testing"

	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/transport"
)

// quickChaos shrinks the client window so the test run is cheap; the
// timeline and protocol behaviour are unchanged.
func quickChaos(kind transport.Kind) ChaosConfig {
	return ChaosConfig{Kind: kind, Payload: 512, Window: 4, Seed: 1}
}

// quickE7 is the quick registry run of E7 — window 8, seed 1, both
// transports — made once for the tests that read it.
var quickE7 = sync.OnceValues(func() (*metrics.Result, error) {
	rc := DefaultRunContext()
	rc.Quick = true
	return Run("E7", rc)
})

// TestChaosLivenessAcrossTimeline asserts the headline result of
// experiment E7 on both backends: the cluster keeps committing requests
// through every phase of the fault timeline — including the partition of
// the current leader, which only stays live because the previously
// crashed replica recovered via state transfer and completes the
// majority's quorum.
func TestChaosLivenessAcrossTimeline(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			res, err := RunChaos(quickChaos(kind), model.Default())
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Phases {
				if p.Committed == 0 {
					t.Errorf("phase %q committed nothing: %+v", p.Name, res.Phases)
				}
			}
			if res.StateTransfers == 0 {
				t.Errorf("restarted replica completed no state transfer")
			}
			// One crash, one view change: replica 1 must still lead when
			// the partition cuts it off, or the partition phase measures
			// a cut-off backup and contains no view change at all.
			if res.LeaderAtPartition != 1 {
				t.Errorf("replica %d led when the partition fired, want replica 1 (view 1)", res.LeaderAtPartition)
			}
			for _, i := range []int{0, 2, 3} {
				if res.FinalViews[i] != 2 {
					t.Errorf("majority replica %d ended in view %d, want 2 (views: %v)", i, res.FinalViews[i], res.FinalViews)
				}
			}
			// The healthy phase must outperform the view-change phase
			// in mean latency (faults are not free).
			if res.Phases[0].MeanLat >= res.Phases[1].MeanLat {
				t.Errorf("healthy mean latency %v >= crash-phase %v",
					res.Phases[0].MeanLat, res.Phases[1].MeanLat)
			}
		})
	}
}

// TestChaosWindow8Regression is the deterministic repro of the window-8
// wedge: at exactly this offered load on the NIO backend, the partition
// phase used to leave TWO replicas lagging together behind the other two.
// No new checkpoint could then be certified (the 2F+1 certificate needs
// the laggards' own votes), the log window filled at stable+LogWindow,
// and state transfer never triggered because its trigger demanded a full
// quorum certificate — zero commits in the healed phase while view
// changes spun forever. Fixed by (1) triggering the fetch on F+1 matching
// checkpoint votes, (2) serving the newest retained (not just stable)
// checkpoint, and (3) having an adopter broadcast the adopted checkpoint
// so the stalled certificate completes. This test pins the fix at the
// exact wedging configuration on both backends: quick E7 runs it.
func TestChaosWindow8Regression(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			res, err := quickE7()
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Config["window"]; got != "8" {
				t.Fatalf("quick E7 runs window %s, the wedge needs 8", got)
			}
			commits := res.GetSeries(string(kind), metrics.MetricCommits)
			if commits == nil || len(commits.Points) != len(phaseNames()) {
				t.Fatalf("missing a commits point per phase: %+v", commits)
			}
			for i, p := range commits.Points {
				if p.Y == 0 {
					t.Errorf("phase %q committed nothing (window-8 wedge is back)", phaseNames()[i])
				}
			}
		})
	}
}
