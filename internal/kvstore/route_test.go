package kvstore

import (
	"fmt"
	"strings"
	"testing"
)

// keysApart returns two keys owned by different partitions (and a third
// sharing the first's partition) — impossible at parts == 1, where all
// three are arbitrary.
func keysApart(t *testing.T, parts int) (a, same, other string) {
	t.Helper()
	a = "route-a"
	for i := 0; i < 10000 && (same == "" || other == ""); i++ {
		k := fmt.Sprintf("route-%04d", i)
		if PartitionKey(k, parts) == PartitionKey(a, parts) {
			if same == "" {
				same = k
			}
		} else if other == "" {
			other = k
		}
	}
	if parts == 1 {
		other = "route-elsewhere"
	}
	if same == "" || other == "" {
		t.Fatalf("no key pair found at %d partitions", parts)
	}
	return a, same, other
}

// TestPlanOp pins the routing decision every front-end shares, at the
// one-partition (plain PBFT), COP-sized and shard-sized splits.
func TestPlanOp(t *testing.T) {
	for _, parts := range []int{1, 4, 8} {
		a, same, other := keysApart(t, parts)
		home := PartitionKey(a, parts)
		local := []TxnSub{{OpPut, a, "1"}, {OpGet, same, ""}}
		spread := []TxnSub{{OpPut, a, "1"}, {OpPut, other, "2"}}
		spreadPayload := string(appendSubs(nil, spread))

		// Scans and cross-partition transactions only exist with more
		// than one partition; a single group orders them like any op.
		scan := func(limit int) Plan {
			if parts == 1 {
				return Plan{}
			}
			return Plan{Route: RouteScan, Key: "pre", Limit: limit}
		}
		cross := Plan{Route: RouteCross, Key: "t2", Value: spreadPayload}
		if parts == 1 {
			cross = Plan{}
		} else {
			// The plan's continuation: one participant per owning
			// partition, ascending, each sub traceable to its position.
			ps, n, err := SplitTxn(spreadPayload, parts)
			if err != nil || n != 2 || len(ps) != 2 || ps[0].Part >= ps[1].Part {
				t.Fatalf("parts=%d: SplitTxn = %+v, n=%d, err=%v", parts, ps, n, err)
			}
			for _, p := range ps {
				if len(p.Subs) != 1 || spread[p.Idx[0]] != p.Subs[0] || PartitionKey(p.Subs[0].Key, parts) != p.Part {
					t.Errorf("parts=%d: participant %+v does not own its sub-operation", parts, p)
				}
			}
		}
		for _, tc := range []struct {
			name string
			op   []byte
			want Plan
		}{
			{"get", EncodeOp(OpGet, a, ""), Plan{Part: home, Read: true}},
			{"put", EncodeOp(OpPut, a, "v"), Plan{Part: home}},
			{"delete", EncodeOp(OpDelete, a, ""), Plan{Part: home}},
			{"scan with limit", EncodeOp(OpScan, "pre", "7"), scan(7)},
			{"scan without limit", EncodeOp(OpScan, "pre", ""), scan(0)},
			{"scan with junk limit", EncodeOp(OpScan, "pre", "-3"), Plan{}},
			{"one-partition txn", EncodeTxn("t1", local), Plan{Part: home}},
			{"cross-partition txn", EncodeTxn("t2", spread), cross},
			{"prepare follows its first key", EncodePrepare("t3", spread), Plan{Part: home}},
			{"commit names no key", EncodeCommit("t3"), Plan{}},
			{"undecodable bytes", []byte{0xff, 0x01}, Plan{}},
			{"empty", nil, Plan{}},
		} {
			if got := PlanOp(tc.op, parts); got != tc.want {
				t.Errorf("parts=%d %s: PlanOp = %+v, want %+v", parts, tc.name, got, tc.want)
			}
		}
	}
}

// TestScatterScanMergesPartials runs a scan plan against per-partition
// stores and checks the merged reply equals a whole-store scan, fires
// once, and reports the partition-0 leg's trace id.
func TestScatterScanMergesPartials(t *testing.T) {
	const parts = 4
	whole := New()
	stores := make([]*Store, parts)
	for p := range stores {
		stores[p] = New()
	}
	for i := 0; i < 40; i++ {
		put := EncodeOp(OpPut, fmt.Sprintf("pre%02d", i), "v")
		whole.Execute(put)
		stores[PlanOp(put, parts).Part].Execute(put)
	}
	for _, limit := range []int{0, 5} {
		op := EncodeOp(OpScan, "pre", fmt.Sprint(limit))
		var replies []string
		var pending []func()
		id := ScatterScan(PlanOp(op, parts), parts, func(part int, sub []byte, done func([]byte)) string {
			pending = append(pending, func() { done(stores[part].Execute(sub)) })
			return fmt.Sprintf("leg%d", part)
		}, func(res []byte) { replies = append(replies, string(res)) })
		if id != "leg0" {
			t.Errorf("limit=%d: trace id %q, want the partition-0 leg", limit, id)
		}
		for _, deliver := range pending {
			if len(replies) != 0 {
				t.Fatalf("limit=%d: done fired before the last partial", limit)
			}
			deliver()
		}
		want := string(whole.Execute(op))
		if len(replies) != 1 || replies[0] != want {
			t.Errorf("limit=%d: merged %d replies %q, want one %q", limit, len(replies), replies, want)
		}
		if limit > 0 && strings.Count(want, "\n") != limit-1 {
			t.Errorf("limit=%d: whole-store scan returned %q", limit, want)
		}
	}
}

// TestJunkScanLimitGetsOneAnswer sends a scan whose limit does not parse
// the way every front-end does — PlanOp, then the plan's route — over one
// store and over four partitions: the single group's ordered ERR is the
// only answer. (PlanOp used to swallow the parse error and scatter an
// unbounded scan, so the partitioned deployments returned data instead.)
func TestJunkScanLimitGetsOneAnswer(t *testing.T) {
	const parts = 4
	whole := New()
	stores := make([]*Store, parts)
	for p := range stores {
		stores[p] = New()
	}
	for i := 0; i < 8; i++ {
		put := EncodeOp(OpPut, fmt.Sprintf("k%d", i), "v")
		whole.Execute(put)
		stores[PlanOp(put, parts).Part].Execute(put)
	}
	for _, limit := range []string{"bogus", "-3", "1e3", " 5"} {
		op := EncodeOp(OpScan, "k", limit)
		want := string(whole.Execute(op))
		if !strings.HasPrefix(want, "ERR bad scan limit") {
			t.Fatalf("limit %q: single store answered %q", limit, want)
		}
		var got string
		switch plan := PlanOp(op, parts); plan.Route {
		case RouteOne:
			got = string(stores[plan.Part].Execute(op))
		case RouteScan:
			ScatterScan(plan, parts, func(part int, sub []byte, done func([]byte)) string {
				done(stores[part].Execute(sub))
				return ""
			}, func(res []byte) { got = string(res) })
		}
		if got != want {
			t.Errorf("limit %q: %d partitions answered %q, one store %q", limit, parts, got, want)
		}
		if tentative := string(whole.ExecuteReadOnly(op)); tentative != want {
			t.Errorf("limit %q: tentative read answered %q, ordered %q", limit, tentative, want)
		}
	}
}
