package rubin_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// mapRangeAllowed lists every function of the simulated world that ranges
// over a map, with how many such statements it holds and why iteration
// order cannot reach a result: one `pkg.Func n — reason` per line. The
// reasons are the review — nothing classifies loop bodies.
const mapRangeAllowed = `
bench.Experiment.resolve 1 — validation: any knob the experiment does not declare fails the run; which of several a message names reaches no result
bench.Experiments 1 — collect, then sorted by experiment number and name
bench.Run 1 — copies the echoed knobs into Result.Config, a map, which encoding/json marshals with sorted keys
bench.values.echo 1 — map to map, one entry per knob
kvstore.Store.Prepared 1 — collect, then sort.Strings
kvstore.appendKeys 1 — collects keys; both callers sort them before use: scanPart, and encodeBucket for the canonical encoding every bucket digest is taken over
main.knobFlags.String 1 — collect, then sort.Strings (flag.Value, for -help)
main.run 1 — collect the knob names, then sort.Strings, to print -knobs
pbft.Replica.knownIDs 1 — collects the known rows of the one request table (assigned and done rows are skipped), then sorted by (client, timestamp), a total order
pbft.Replica.resetRequests 1 — rewrites each assigned row of the request table as known in place, or deletes each row whose latest sequence is executed: no key comes, and no row's fate reads another's
pbft.Replica.settleView 1 — delete-only sweep of the votes for views at or below the installed one; keyed by view, which is unbounded above
pbft.checkpointStore.gc 1 — a delete-only sweep of the votes at or below the stable point (keyed by sequence, unbounded above: a lagging replica keeps votes far ahead)
reptor.Executor.maxReadyRound 1 — a maximum
reptor.Executor.subsume 1 — delete-only sweep of the ready slots a checkpoint subsumed
`

// TestMapRangeGate fails on any `range` whose operand is a map, in a
// non-test file under internal/ or cmd/, that mapRangeAllowed does not
// cover (ROADMAP O12): Go randomises map iteration, and a simulation whose
// bytes depend on it stops reproducing — as VIEW-CHANGE bytes did before
// PR 12. Index by a bounded key instead (replica id, sequence modulo the
// window), or list the function with its reason.
func TestMapRangeGate(t *testing.T) {
	tree := loadTree(t)
	found := map[string]int{}    // pkg.Func -> map ranges in it
	where := map[string]string{} // pkg.Func -> position of the first
	for _, u := range tree.units {
		if !strings.HasPrefix(u.rel, "internal/") && !strings.HasPrefix(u.rel, "cmd/") {
			continue
		}
		for _, file := range u.files {
			if tree.inTest(file.Pos()) {
				continue
			}
			for _, d := range file.Decls {
				id := u.pkg.Name() + ".(package level)"
				if fn, ok := d.(*ast.FuncDecl); ok {
					id = u.pkg.Name() + "." + fn.Name.Name
					if fn.Recv != nil {
						recv := fn.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if idx, ok := recv.(*ast.IndexExpr); ok { // generic receiver
							recv = idx.X
						}
						id = fmt.Sprintf("%s.%s.%s", u.pkg.Name(), recv.(*ast.Ident).Name, fn.Name.Name)
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					rs, ok := n.(*ast.RangeStmt)
					if !ok {
						return true
					}
					if _, isMap := u.info.Types[rs.X].Type.Underlying().(*types.Map); isMap {
						if found[id]++; found[id] == 1 {
							where[id] = tree.at(rs.Pos())
						}
					}
					return true
				})
			}
		}
	}

	listed := map[string]bool{}
	for entry := range parseAllowList(t, mapRangeAllowed) {
		var id string
		var n int
		if _, err := fmt.Sscanf(entry, "%s %d", &id, &n); err != nil {
			t.Errorf("allow-list entry %q: want `pkg.Func n`", entry)
			continue
		}
		listed[id] = true
		switch {
		case found[id] == 0:
			t.Errorf("allow-list entry %s is stale: the function is gone or ranges over no map", id)
		case found[id] != n:
			t.Errorf("%s (%s) ranges over a map %d times, the allow-list says %d: review the new one", id, where[id], found[id], n)
		}
	}
	var unlisted []string
	total := 0
	for id, n := range found {
		total += n
		if !listed[id] {
			unlisted = append(unlisted, fmt.Sprintf("%s (%s): %d range-over-map statement(s) with no allow-list entry", id, where[id], n))
		}
	}
	sort.Strings(unlisted)
	for _, line := range unlisted {
		t.Error(line)
	}
	t.Logf("%d range-over-map statements in %d functions", total, len(found))
}
