package bench

import (
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/sim"
)

// TestSilencePeakUnderHalfTheBound runs every experiment of the quick suite
// but the two fault timelines (E7, E12) and reads each deployment's
// replica hosts after its run: on a fault-free point no backup saw its
// view's leader silent for half the silence deadline (ViewTimeout/4) while
// it held a known request, so the deadline is a fault's, not load's. Some
// point must read a silence at all, or the stat measures nothing.
func TestSilencePeakUnderHalfTheBound(t *testing.T) {
	var deps []*deployment
	deployed = func(d *deployment) { deps = append(deps, d) }
	defer func() { deployed = nil }()
	rc := DefaultRunContext()
	rc.Quick = true
	var longest sim.Time
	for _, e := range Experiments() {
		if e.Name == "E7" || e.Name == "E12" {
			continue
		}
		deps = nil
		if _, err := Run(e.Name, rc); err != nil {
			t.Fatal(err)
		}
		for i, d := range deps {
			limit := d.groups[0].Config.ViewTimeout / 8
			peak := sim.Time(fabric.Fold(d.hosts...)["pbft.silence_peak_ns"])
			if peak >= limit {
				t.Errorf("%s, deployment %d: a leader was silent for %v while a backup held a known request, want under %v", e.Name, i, peak, limit)
			}
			longest = max(longest, peak)
		}
	}
	if longest == 0 {
		t.Fatal("no deployment of the quick suite read a silence")
	}
}
