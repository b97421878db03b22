package pbft

import (
	"fmt"

	"rubin/internal/auth"
	"rubin/internal/sim"
)

// Application is the replicated service executed by the agreement layer:
// a state machine that can be checkpointed and state-transferred
// (PartitionedState) and can answer tentative reads (TentativeReader).
type Application interface {
	PartitionedState
	TentativeReader
}

// PartitionedState is the part of Application that executes, checkpoints
// and transfers state (Castro & Liskov §6.3, hierarchical state
// partitions) — the one transfer protocol this package speaks. The
// application's state is split into a fixed number of partitions, each
// with a stable digest; the root digest returned by Snapshot must be
// recomputable from a transfer header plus the partition digests via
// ComposeRoot.
//
// A replica retains checkpoints as delta chains (one materialized base
// plus, per later checkpoint, only the partitions dirtied since the
// previous one, each with its PartitionDigest; no record copies the whole
// digest list) and serves state transfer as a subtree negotiation: the
// fetcher advertises its partition digests, the responder streams only
// divergent partitions, and the fetcher verifies every partition against
// the certified root's digest list on arrival. A fetcher with nothing in
// common — a replica rebooted with an empty store — is the degenerate case
// in which every partition diverges and the whole state crosses the wire.
type PartitionedState interface {
	// Execute applies one ordered operation and returns its result. op is
	// lent for the call: the replica reuses it once it releases the request,
	// so the application copies what it keeps. The result is read-only and
	// may be application storage, lent until the next mutating call: a
	// caller that keeps it copies it.
	Execute(op []byte) []byte
	// Snapshot returns a digest of the current state (checkpoints).
	Snapshot() auth.Digest
	// PartitionCount returns the fixed number of leaf partitions.
	PartitionCount() int
	// PartitionDigest returns the current digest of one partition. A
	// checkpoint asks it for each dirty partition, and a state transfer for
	// every partition on each verified part, so a clean partition's should
	// cost no allocation.
	PartitionDigest(part int) auth.Digest
	// CheckpointDelta returns the partitions mutated since the
	// application's applied-operation counter read since, ascending. The
	// result is lent: it may be the application's scratch, valid until the
	// next CheckpointDelta, and the caller keeps none of it.
	CheckpointDelta(since uint64) []int
	// Applied returns the applied-operation counter (the clock
	// CheckpointDelta is expressed in).
	Applied() uint64
	// MarshalPartition serializes one partition; auth.Hash of the result
	// must equal its PartitionDigest. The result is read-only and may be
	// shared application storage, never written again: a checkpoint
	// retains it across later operations.
	MarshalPartition(part int) []byte
	// MarshalHeader serializes the state outside the partitions (e.g.
	// the applied counter and any non-partitioned sections).
	MarshalHeader() []byte
	// ComposeRoot statelessly recomputes the Snapshot root a store with
	// this header and these partition digests would report.
	ComposeRoot(header []byte, digests []auth.Digest) auth.Digest
	// ApplyTransfer atomically replaces the full state from a header
	// plus one serialized partition per index; the state must be
	// unchanged on error.
	ApplyTransfer(header []byte, parts [][]byte) error
	// MarshalState and UnmarshalState serialize and fully replace the
	// whole state. The fetcher saves the state with MarshalState before
	// ApplyTransfer and puts it back with UnmarshalState if the applied
	// transfer does not hash to the certified root; a restored state must
	// produce the same Snapshot digest as the original.
	MarshalState() []byte
	UnmarshalState(state []byte) error
}

// TentativeReader is the part of Application behind the read-only fast
// path (Castro & Liskov §4.4): it evaluates side-effect-free operations
// without mutating state, so a replica answers ReadRequests tentatively
// from its last-executed state, bypassing agreement. ExecuteReadOnly must
// return exactly what Execute would return for the same operation and
// state, and must leave the state — including any snapshot digest —
// byte-identical: replicas serve tentative reads at different times, and a
// read that perturbed state would diverge their checkpoints.
type TentativeReader interface {
	ExecuteReadOnly(op []byte) []byte
}

// Config tunes a replica group.
type Config struct {
	// N is the group size; F the tolerated faults. N must be >= 3F+1.
	N, F int
	// BatchSize is the maximum requests per pre-prepare; batchBytes bounds
	// their operation bytes too.
	BatchSize int
	// CheckpointEvery takes a checkpoint each K executed sequences.
	CheckpointEvery uint64
	// LogWindow is the high-watermark window above the stable
	// checkpoint within which proposals are accepted.
	LogWindow uint64
	// ViewTimeout is how long a replica waits for a known request to
	// execute before suspecting the leader.
	ViewTimeout sim.Time
	// InitialView lets co-located groups (a COP group, shard.NewCOP)
	// start each group in a different view so leadership is spread across
	// replicas.
	InitialView uint64
}

// batchDelay bounds how long a leader waits to fill a batch. It was 200 µs
// while a replica's agreement work queued behind its client traffic on one
// application thread; with a selector for each (Hosts), a trailing batch's
// wait is what a run's drain shows, and 100 µs keeps it within the
// service gaps that thread used to hide it in (docs/EXPERIMENTS.md).
const batchDelay = 100 * sim.Microsecond

// batchBytes bounds a batch by the sum of its requests' operation sizes, as
// Castro & Liskov do, beside BatchSize's count: a leader cuts a proposal
// when its pending requests reach either bound, and the proposal holds less
// than batchBytes of operations unless one request alone does. It equals
// transport.DefaultOptions().MaxMessage.
const batchBytes = 256 << 10

// DefaultConfig returns a reasonable small-cluster configuration
// tolerating one fault.
func DefaultConfig() Config {
	return Config{
		N:               4,
		F:               1,
		BatchSize:       32,
		CheckpointEvery: 64,
		LogWindow:       256,
		ViewTimeout:     40 * sim.Millisecond,
	}
}

// Validate checks the quorum arithmetic.
func (c Config) Validate() error {
	if c.N < 3*c.F+1 {
		return fmt.Errorf("pbft: need N >= 3F+1, got N=%d F=%d", c.N, c.F)
	}
	if c.BatchSize < 1 || c.CheckpointEvery < 1 || c.LogWindow < c.CheckpointEvery {
		return fmt.Errorf("pbft: invalid batching/checkpoint config")
	}
	return nil
}

// Quorum returns the 2F+1 agreement quorum size.
func (c Config) Quorum() int { return 2*c.F + 1 }
