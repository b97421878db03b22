package rubin_test

import (
	"path/filepath"
	"testing"

	"rubin/internal/bench"
	"rubin/internal/metrics"
)

// TestParamsMatchCheckedIn pins each experiment's knob table against its
// checked-in result file: the full-fidelity defaults Params derives from
// the table must be exactly the knob entries of the file's config object
// — no run needed. A default that drifts in the table (or a knob added or
// dropped) fails here instead of silently changing what regenerating the
// file means. Config entries a run derives on top (cluster labels, notes
// on modes) are not knobs; they are counted so a dropped knob shows too.
// Every checked-in file also passes the schema check, one per experiment,
// each under its experiment's name.
func TestParamsMatchCheckedIn(t *testing.T) {
	derived := map[string]int{"E5": 1 /* cluster */, "E7": 4 /* cluster × 2, phases, counter_index */, "E12": 2 /* cluster, modes */}
	names := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}
	if files, _ := filepath.Glob("BENCH_*.json"); len(files) != len(names) {
		t.Errorf("%d BENCH_*.json files are checked in, want one per experiment: %v", len(files), files)
	}
	for _, name := range names {
		stored, err := metrics.ReadResultFile(metrics.ResultFilename(name))
		if err != nil {
			t.Fatal(err)
		}
		if stored.Experiment != name {
			t.Errorf("%s holds experiment %s", metrics.ResultFilename(name), stored.Experiment)
		}
		e, ok := bench.Lookup(name)
		if !ok {
			t.Fatalf("%s not registered", name)
		}
		params, err := e.Params(bench.DefaultRunContext())
		if err != nil {
			t.Fatal(err)
		}
		for knob, want := range params {
			if got, ok := stored.Config[knob]; !ok || got != want {
				t.Errorf("%s: knob %s is %q in the table, %q (present=%v) in the checked-in file", name, knob, want, got, ok)
			}
		}
		if got, want := len(stored.Config), len(params)+derived[name]; got != want {
			t.Errorf("%s: checked-in config has %d entries, the table explains %d", name, got, want)
		}
	}
}
