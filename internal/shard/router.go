package shard

import (
	"errors"
	"fmt"

	"rubin/internal/kvstore"
	"rubin/internal/obs"
	"rubin/internal/pbft"
	"rubin/internal/sim"
)

// Router is the routing front-end of a deployment, sharded or COP: it owns
// one PBFT client per group, routes each operation to the group owning its
// keys (kvstore.PartitionKey hash ranges), fans scans out across every
// shard, and coordinates cross-shard transactions with two-phase commit
// over consensus. The router is a coordinator, not a trust anchor —
// every PREPARE and COMMIT/ABORT it sends is an ordered operation that
// a BFT quorum of the participant shard executes, so a faulty router
// can stall its own transactions but cannot break atomicity.
type Router struct {
	*pbft.FrontEnd
	dep *Deployment

	// inflight counts operations accepted by InvokeOp whose done has
	// not fired — unlike the sub-clients' Outstanding, it also covers
	// lock-retry backoffs and the gap between 2PC phases.
	inflight int
	errs     []error
	// Cells of the router node's stat table: lock-conflict resubmissions,
	// and transactions that went through 2PC.
	retries, txns2PC *uint64
}

// AddRouter creates a router on its own network node, connected to
// every replica of every group. Must run after Start.
func (d *Deployment) AddRouter() (*Router, error) {
	ridx := len(d.routers)
	fe, err := pbft.NewFrontEnd(fmt.Sprintf("router%d", ridx), uint32(100+ridx), d.Clusters)
	if err != nil {
		return nil, err
	}
	node := fe.Mesh.Node()
	r := &Router{FrontEnd: fe, dep: d,
		retries: node.Counter("shard.lock_retries"), txns2PC: node.Counter("shard.cross_shard_txns")}
	d.routers = append(d.routers, r)
	return r, nil
}

// InvokeOp routes one encoded kvstore operation (kvstore.PlanOp over S
// partitions); done fires exactly once with the final reply. Single-key
// operations go to the shard owning the key: a Get through the client's
// InvokeRead, a write with a deterministic backoff-and-resubmit whenever
// the state machine refuses it with kvstore.Locked. Scans scatter as
// partition-filtered sub-scans and merge locally. A multi-key transaction
// runs one-phase on its home shard when every key hashes there, and
// through 2PC over consensus otherwise. The returned string is the trace id of the operation's
// (first) sub-request.
func (r *Router) InvokeOp(op []byte, done func([]byte)) string {
	r.inflight++
	finish := func(res []byte) {
		r.inflight--
		if done != nil {
			done(res)
		}
	}
	p := kvstore.PlanOp(op, len(r.Clients))
	switch {
	case p.Route == kvstore.RouteScan:
		return kvstore.ScatterScan(p, len(r.Clients), func(s int, sub []byte, done func([]byte)) string {
			return r.Clients[s].Invoke(sub, done)
		}, finish)
	case p.Route == kvstore.RouteCross:
		return r.invoke2PC(p.Key, p.Value, finish)
	case p.Read:
		// No lock-retry loop for a Get: a stored value may itself be the
		// string LOCKED. InvokeRead orders it unless the client's read fast
		// path is on.
		return r.Clients[p.Part].InvokeRead(op, finish)
	}
	return r.invokeRetry(p.Part, op, finish)
}

// lockRetry is the backoff before a router re-submits an operation the
// state machine refused with kvstore.Locked (a single-key write or
// one-phase transaction that hit a prepared transaction's locks).
const lockRetry = 200 * sim.Microsecond

// invokeRetry submits op to one shard, resubmitting after lockRetry for as
// long as the state machine replies kvstore.Locked. The condition clears
// when the lock-holding prepared transaction's decision executes, so in a
// live system the retry loop terminates. Each resubmission is a fresh
// request; the returned trace id is the first attempt's.
func (r *Router) invokeRetry(shard int, op []byte, done func([]byte)) string {
	var submit func() string
	handle := func(res []byte) {
		if string(res) == kvstore.Locked {
			*r.retries++
			r.dep.Loop.After(lockRetry, func() { submit() })
			return
		}
		done(res)
	}
	submit = func() string { return r.Clients[shard].Invoke(op, handle) }
	return submit()
}

// invoke2PC coordinates a cross-shard transaction: a PREPARE carrying
// each participant's sub-operations is ordered in that shard's log
// (staging writes, taking locks, executing reads under them), and once
// every vote is in, the decision — COMMIT iff every shard voted
// PREPARED — is ordered in every participant's log. Conflicting
// prepares vote ABORTED instead of waiting (no-wait locking), so 2PC
// over consensus cannot deadlock; the client sees TxnAborted and may
// retry the whole transaction. done fires after every decision quorum
// confirms, with the per-sub results (read values captured at prepare
// time, under the locks) merged back into original sub order.
func (r *Router) invoke2PC(id, payload string, done func([]byte)) string {
	parts, n, err := kvstore.SplitTxn(payload, len(r.Clients))
	if err != nil {
		done([]byte("ERR " + err.Error()))
		return ""
	}
	*r.txns2PC++

	results := make([][]byte, n)
	commit := true
	pending := len(parts)
	start := r.dep.Loop.Now()
	var traceID string
	for _, p := range parts {
		tid := r.Clients[p.Part].Invoke(kvstore.EncodePrepare(id, p.Subs), func(res []byte) {
			status, rs, err := kvstore.DecodeTxnResult(res)
			switch {
			case err == nil && status == kvstore.TxnPrepared && len(rs) == len(p.Idx):
				for j, orig := range p.Idx {
					results[orig] = rs[j]
				}
			case err == nil && status == kvstore.TxnAborted:
				commit = false
			default:
				// A quorum-confirmed reply that is neither a vote nor an
				// abort is a protocol error (malformed transaction, buggy
				// coordinator); abort and surface it through Errs.
				commit = false
				r.errs = append(r.errs, fmt.Errorf("shard %d: txn %s prepare reply %q", p.Part, id, res))
			}
			if pending--; pending == 0 {
				r.decide(id, parts, commit, results, start, traceID, done)
			}
		})
		if traceID == "" {
			traceID = tid
		}
	}
	return traceID
}

// decide orders the transaction's outcome in every participant's log
// and replies to the client once all decision quorums confirm. The
// decision goes to every participant including shards that voted
// ABORTED without staging anything — aborting an unknown transaction is
// an idempotent no-op, and the decision must land in each log so every
// replica of every participant resolves the transaction the same way.
func (r *Router) decide(id string, parts []kvstore.Participant, commit bool, results [][]byte, start sim.Time, traceID string, done func([]byte)) {
	loop := r.dep.Loop
	voted := loop.Now()
	if t := r.dep.Network.Tracer(); t != nil {
		t.Record(obs.PrepareWait, voted-start)
		t.Span("shard", "2pc-prepare", r.Mesh.Node().Name(), traceID, start, voted)
	}
	decision, want, span := kvstore.EncodeCommit(id), kvstore.TxnCommitted, "2pc-commit"
	if !commit {
		decision, want, span = kvstore.EncodeAbort(id), kvstore.TxnAborted, "2pc-abort"
	}
	pending := len(parts)
	for _, p := range parts {
		s := p.Part
		r.Clients[s].Invoke(decision, func(res []byte) {
			status, _, err := kvstore.DecodeTxnResult(res)
			if err != nil || status != want {
				r.errs = append(r.errs, fmt.Errorf("shard %d: txn %s decision reply %q (want %s)", s, id, res, want))
			}
			if pending--; pending == 0 {
				end := loop.Now()
				if t := r.dep.Network.Tracer(); t != nil {
					t.Record(obs.CommitWait, end-voted)
					t.Span("shard", span, r.Mesh.Node().Name(), traceID, voted, end)
				}
				if commit {
					done(kvstore.EncodeTxnResult(kvstore.TxnCommitted, results))
				} else {
					done(kvstore.EncodeTxnResult(kvstore.TxnAborted, nil))
				}
			}
		})
	}
}

// Outstanding returns the operations accepted by InvokeOp that have not
// replied — including ones parked in a lock-retry backoff or between
// 2PC phases, which hold no sub-client invocation at that instant.
func (r *Router) Outstanding() int { return r.inflight }

// Errs joins the 2PC protocol errors observed so far — nil in a
// healthy run. Votes of ABORTED are normal conflicts, not errors.
func (r *Router) Errs() error { return errors.Join(r.errs...) }
