// Package rubin_test hosts the top-level gates: the checked-in result
// files pinned against the code, the allocation budgets, the dead-surface
// check, and one testing.B benchmark over the experiment registry.
package rubin_test

import (
	"testing"

	"rubin/internal/bench"
)

// BenchmarkExperiments runs every registered experiment in quick mode
// through the registry, the way `benchsuite -quick` does: ns/op is the
// simulator's real cost per experiment. The virtual-clock numbers — what
// the paper's figures correspond to — are the BENCH_*.json files; run
// `go run ./cmd/benchsuite -experiments E1,E2 -out /tmp/b` for tables.
//
//	go test -run '^$' -bench Experiments/E5 -benchtime 1x .
func BenchmarkExperiments(b *testing.B) {
	rc := bench.DefaultRunContext()
	rc.Quick = true
	for _, e := range bench.Experiments() {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bench.Run(e.Name, rc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
