package bench

import (
	"sync"
	"testing"

	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/transport"
)

// quickE7 is the quick registry run of E7 — window 8, seed 1, both
// transports — made once for the tests that read it.
var quickE7 = sync.OnceValues(func() (*metrics.Result, error) {
	rc := DefaultRunContext()
	rc.Quick = true
	return Run("E7", rc)
})

// TestChaosLivenessAcrossTimeline asserts the headline result of
// experiment E7 on both backends, at client window 4 (quick E7 runs 8, see
// TestChaosWindow8Regression): the cluster keeps committing requests
// through every phase of the fault timeline — including the partition of
// the current leader, which only stays live because the previously
// crashed replica recovered via state transfer and completes the
// majority's quorum, and the crash of view 2's leader after the heal.
func TestChaosLivenessAcrossTimeline(t *testing.T) {
	// Replica 2 led view 2 and crashed in it; the other three installed a
	// view without it. On tcp-nio that is view 4: replica 3's NEW-VIEW for
	// view 3 stays held, since the bodies it names were released at every
	// replica that executed them (ROADMAP O15(7)).
	finalViews := map[transport.Kind][]uint64{transport.KindRDMA: {3, 3, 2, 3}, transport.KindTCP: {4, 4, 2, 4}}
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			res, err := RunChaos(kind, 512, 4, 1, model.Default())
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
			for i, want := range finalViews[kind] {
				if res.FinalViews[i] != want {
					t.Errorf("replica %d ended in view %d, want %d (views: %v)", i, res.FinalViews[i], want, res.FinalViews)
				}
			}
			if last, recovery := res.Phases[4].Committed, res.Phases[2].Committed; 4*last < recovery {
				t.Errorf("phase %q committed %d, under a quarter of the recovery phase's %d", res.Phases[4].Name, last, recovery)
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
// exact wedging configuration on both backends: quick E7 runs it. Quick
// E7 is also the run whose last view change re-proposes batches in
// flight, so it checks that one too.
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
			// At window 8 the crash of view 2's leader catches batches in
			// flight, and the replicas that had executed them vote for
			// them again: a replica that only skips a re-proposal it
			// executed leaves the others one COMMIT short, and the last
			// phase commits next to nothing.
			if counters := res.GetSeries(string(kind)+" counters", "fault_counters"); counters == nil || len(counters.Points) < 4 || counters.Points[3].Y < 1 {
				t.Errorf("no NEW-VIEW re-proposed a sequence: %+v", counters)
			}
			if last, recovery := commits.Points[4].Y, commits.Points[2].Y; 4*last < recovery {
				t.Errorf("phase %q committed %v, under a quarter of the recovery phase's %v", phaseNames()[4], last, recovery)
			}
		})
	}
}
