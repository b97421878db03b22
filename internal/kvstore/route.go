package kvstore

import "sort"

// Route is the shape of an operation's path through a keyspace split
// over hash partitions (shards, or the instances of a COP group).
type Route int

const (
	// RouteOne goes to the single partition owning every key it names.
	RouteOne Route = iota
	// RouteScan fans out as one OpScanPart per partition (ScatterScan).
	RouteScan
	// RouteCross is a transaction whose keys span partitions: it runs
	// two-phase commit over the partitions' groups (shard.Router).
	RouteCross
)

// Plan is the routing decision for one encoded operation.
type Plan struct {
	Route Route
	// Part is the owning partition of a RouteOne operation.
	Part int
	// Read marks a RouteOne single-key get — the one shape that may take
	// a read fast path: scans and transaction reads stay ordered because
	// their consistency spans more than one key.
	Read bool
	// Key and Value are the operation's decoded fields where the route
	// needs them: a scan's prefix, a transaction's id and sub-operations.
	Key, Value string
	// Limit caps a scan's result; 0 means unbounded.
	Limit int
}

// PlanOp decides where op goes among parts partitions — the one place
// that maps an operation to PartitionKey ranges, so every front-end (a
// plain PBFT client is the parts == 1 case) routes alike.
//
// Per-key semantics hold only when every operation of a key is ordered by
// the same partition; routing by the state-machine key guarantees that
// even when unique values make each operation's bytes distinct. Bytes
// that do not decode, a scan whose limit does not parse, and operations
// naming no key (COMMIT/ABORT), go to partition 0: they still deserve an
// ordered ERR reply, the one a single group would give. Only an OpTxn can
// be RouteCross — a PREPARE is addressed to one participant by
// construction and follows its first key.
func PlanOp(op []byte, parts int) Plan {
	code, key, value, err := DecodeOp(op)
	if err != nil {
		return Plan{}
	}
	if parts <= 1 {
		return Plan{Read: code == OpGet} // one group owns and orders everything
	}
	if code == OpScan {
		limit, err := scanLimit(value)
		if err != nil {
			return Plan{} // partition 0 orders it and answers the ERR
		}
		return Plan{Route: RouteScan, Key: key, Limit: limit}
	}
	keys, err := OpKeys(op)
	if err != nil || len(keys) == 0 {
		return Plan{}
	}
	home := PartitionKey(keys[0], parts)
	if code == OpTxn {
		for _, k := range keys[1:] {
			if PartitionKey(k, parts) != home {
				return Plan{Route: RouteCross, Key: key, Value: value}
			}
		}
	}
	return Plan{Part: home, Read: code == OpGet}
}

// ScatterScan runs a RouteScan plan: one partition-filtered OpScanPart
// per partition through invoke, merged locally into the reply a
// whole-keyspace scan would have produced. Partition p's keys are only
// ever mutated in partition p's order, so each partial result is
// deterministic. done fires once, after the last partial lands; the
// returned trace id is the partition-0 leg's — one representative of the
// scatter.
func ScatterScan(p Plan, parts int, invoke func(part int, op []byte, done func([]byte)) string, done func([]byte)) string {
	partials := make([]string, parts)
	pending := parts
	var traceID string
	for part, sub := range SplitScan(p.Key, p.Limit, parts) {
		id := invoke(part, sub, func(res []byte) {
			partials[part] = string(res)
			if pending--; pending == 0 {
				done([]byte(MergeScans(partials, p.Limit)))
			}
		})
		if part == 0 {
			traceID = id
		}
	}
	return traceID
}

// Participant is one partition's slice of a RouteCross transaction.
type Participant struct {
	Part int
	Subs []TxnSub
	Idx  []int // positions of Subs within the original transaction
}

// SplitTxn groups a RouteCross plan's sub-operations (Plan.Value) by
// owning partition, in ascending partition order so that dispatch is
// deterministic; n is the transaction's sub-operation count.
func SplitTxn(payload string, parts int) (ps []Participant, n int, err error) {
	subs, err := DecodeTxnSubs([]byte(payload))
	if err != nil {
		return nil, 0, err
	}
	at := make(map[int]int) // partition -> index in ps
	for i, sub := range subs {
		part := PartitionKey(sub.Key, parts)
		j, seen := at[part]
		if !seen {
			j, at[part] = len(ps), len(ps)
			ps = append(ps, Participant{Part: part})
		}
		ps[j].Subs = append(ps[j].Subs, sub)
		ps[j].Idx = append(ps[j].Idx, i)
	}
	sort.Slice(ps, func(a, b int) bool { return ps[a].Part < ps[b].Part })
	return ps, len(subs), nil
}
