package bench

import (
	"bytes"
	"fmt"
	"slices"

	"rubin/internal/pbft"
	"rubin/internal/reptor"
)

// The agreement oracle: safety at the replica level, on every run. No two
// replicas of one group execute different batches at one sequence, and
// replicas that executed as far as each other hold the same state. It reads
// what the replicas hand their hooks and what they report at the end, and
// charges no virtual time.

// ledger files the first batch any replica of one PBFT group — the plain
// cluster or a shard — reports executing at each sequence and compares
// every later report with it, by request identity and operation bytes. A
// hook's batch is lent until the hook returns (the replica reuses a request
// copy it releases), so the ledger files a copy. A sequence is dropped once
// every live replica has executed it, so the ledger holds only the spread
// between replicas.
type ledger struct {
	name  string
	c     *pbft.Cluster
	first map[uint64]filed
	floor uint64 // every sequence at or below it is dropped
}

// filed is the first report at one sequence.
type filed struct {
	replica int
	batch   []pbft.Request
}

// watch gives c's replicas — and each replica a restart puts in their
// place — a ledger named name. The first disagreement sticks in
// d.disagreement, which check reports.
func (d *deployment) watch(name string, c *pbft.Cluster) {
	l := &ledger{name: name, c: c, first: make(map[uint64]filed)}
	d.ledgers = append(d.ledgers, l)
	hook := func(i int, rep *pbft.Replica) {
		rep.OnExecute(func(seq uint64, batch []pbft.Request) {
			if d.disagreement == nil {
				d.disagreement = l.file(i, seq, batch)
			}
		})
	}
	for i, rep := range c.Replicas {
		hook(i, rep)
	}
	c.OnRestart = hook
}

// file compares replica i's batch at seq with the first one filed there,
// or files it, then drops what every live replica has passed. A replica
// that fetched state reports nothing for the sequences it skipped, and its
// reports at or below the floor find nothing to compare with.
func (l *ledger) file(i int, seq uint64, batch []pbft.Request) error {
	if first, seen := l.first[seq]; seq > l.floor && !seen {
		l.first[seq] = filed{i, owned(batch)}
	} else if seen && !slices.EqualFunc(first.batch, batch, sameRequest) {
		return fmt.Errorf("bench: %s: replicas %d and %d executed different batches at sequence %d", l.name, first.replica, i, seq)
	}
	low := seq // the reporting replica is live and has executed seq
	for _, rep := range l.c.Replicas {
		if !rep.Stopped() {
			low = min(low, rep.Executed())
		}
	}
	for ; l.floor < low; l.floor++ {
		delete(l.first, l.floor+1)
	}
	return nil
}

// owned returns a copy of batch that holds its ops in one buffer of its own.
func owned(batch []pbft.Request) []pbft.Request {
	size := 0
	for _, req := range batch {
		size += len(req.Op)
	}
	ops := make([]byte, 0, size)
	batch = slices.Clone(batch)
	for i := range batch {
		ops = append(ops, batch[i].Op...)
		batch[i].Op = ops[len(ops)-len(batch[i].Op):]
	}
	return batch
}

func sameRequest(a, b pbft.Request) bool { return a.ID() == b.ID() && bytes.Equal(a.Op, b.Op) }

// converged checks the group's live replicas at the end of a run: those
// that executed as far as each other report the same application state.
func (l *ledger) converged() error {
	at := map[uint64]int{} // by Executed, the first live replica there
	for i, rep := range l.c.Replicas {
		if rep.Stopped() {
			continue
		}
		j, seen := at[rep.Executed()]
		if !seen {
			at[rep.Executed()] = i
		} else if l.c.Apps[i].Snapshot() != l.c.Apps[j].Snapshot() {
			return fmt.Errorf("bench: %s: replicas %d and %d executed %d sequences into different states", l.name, j, i, rep.Executed())
		}
	}
	return nil
}

// copAgrees checks a COP group at the end of a run: each node's merged
// order is a prefix of the longest, and nodes that merged as far as each
// other report the same application state.
func copAgrees(g *reptor.Group) error {
	longest := 0
	for i := range g.Executors {
		if len(g.GlobalOrder(i)) > len(g.GlobalOrder(longest)) {
			longest = i
		}
	}
	for i := range g.Executors {
		order := g.GlobalOrder(i)
		if !slices.Equal(order, g.GlobalOrder(longest)[:len(order)]) {
			return fmt.Errorf("bench: COP nodes %d and %d merged different orders", longest, i)
		}
		for j := range i {
			if len(order) == len(g.GlobalOrder(j)) && g.Apps[i].Snapshot() != g.Apps[j].Snapshot() {
				return fmt.Errorf("bench: COP nodes %d and %d merged %d requests into different states", j, i, len(order))
			}
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
	if d.cop != nil {
		return copAgrees(d.cop)
	}
	return nil
}
