package bench

import (
	"fmt"

	"rubin/internal/auth"
	"rubin/internal/pbft"
)

// The agreement oracle: safety at the replica level, on every run. No two
// replicas of one group execute different batches at one sequence, and
// replicas that executed as far as each other hold the same state. It reads
// what the replicas hand their hooks and what they report at the end, and
// charges no virtual time.

// ledger files the digest of the first batch any replica of one PBFT
// group — the plain cluster, a shard or a COP instance — reports
// executing at each sequence and compares every later report's with it.
// The digest (pbft.BatchDigest) covers each request's client, timestamp
// and op digest; a hook's batch is lent until the hook returns (the
// replica reuses a request copy it releases), and the digest keeps none
// of it. A sequence is dropped once every live replica has executed it,
// so the ledger holds only the spread between replicas.
type ledger struct {
	name  string
	reps  []*pbft.Replica
	apps  []pbft.Application
	first map[uint64]filed
	floor uint64 // every sequence at or below it is dropped
}

// filed is the first report at one sequence.
type filed struct {
	replica int
	digest  auth.Digest
}

// watch gives one group's replicas, replica i executing into apps[i], a
// ledger named name, and returns the hook that files a replica put in
// slot i later (a cluster's OnRestart). The ledger reads both slices at
// each report, so a replica or app a restart swaps in is the one checked.
// The first disagreement sticks in d.disagreement, which check reports.
func (d *deployment) watch(name string, reps []*pbft.Replica, apps []pbft.Application) func(i int, rep *pbft.Replica) {
	l := &ledger{name: name, reps: reps, apps: apps, first: make(map[uint64]filed)}
	d.ledgers = append(d.ledgers, l)
	hook := func(i int, rep *pbft.Replica) {
		rep.OnExecute(func(seq uint64, batch []pbft.Request) {
			if d.disagreement == nil {
				d.disagreement = l.file(i, seq, batch)
			}
		})
	}
	for i, rep := range reps {
		hook(i, rep)
	}
	return hook
}

// file compares replica i's batch at seq with the first one filed there,
// or files it, then drops what every live replica has passed. A replica
// that fetched state reports nothing for the sequences it skipped, and its
// reports at or below the floor find nothing to compare with.
func (l *ledger) file(i int, seq uint64, batch []pbft.Request) error {
	if first, seen := l.first[seq]; seq > l.floor && !seen {
		l.first[seq] = filed{i, pbft.BatchDigest(batch)}
	} else if seen && first.digest != pbft.BatchDigest(batch) {
		return fmt.Errorf("bench: %s: replicas %d and %d executed different batches at sequence %d", l.name, first.replica, i, seq)
	}
	low := seq // the reporting replica is live and has executed seq
	for _, rep := range l.reps {
		if !rep.Stopped() {
			low = min(low, rep.Executed())
		}
	}
	for ; l.floor < low; l.floor++ {
		delete(l.first, l.floor+1)
	}
	return nil
}

// converged checks the group's live replicas at the end of a run: those
// that executed as far as each other report the same application state.
func (l *ledger) converged() error {
	at := map[uint64]int{} // by Executed, the first live replica there
	for i, rep := range l.reps {
		if rep.Stopped() {
			continue
		}
		j, seen := at[rep.Executed()]
		if !seen {
			at[rep.Executed()] = i
		} else if l.apps[i].Snapshot() != l.apps[j].Snapshot() {
			return fmt.Errorf("bench: %s: replicas %d and %d executed %d sequences into different states", l.name, j, i, rep.Executed())
		}
	}
	return nil
}

// agreement is the oracle's verdict on the run so far: the first
// disagreement any ledger saw, else the end-of-run checks.
func (d *deployment) agreement() error {
	if d.disagreement != nil {
		return d.disagreement
	}
	for _, l := range d.ledgers {
		if err := l.converged(); err != nil {
			return err
		}
	}
	return nil
}
