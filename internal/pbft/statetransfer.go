package pbft

import (
	"bytes"
	"errors"
	"fmt"
	"math"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
)

// State transfer (Castro & Liskov §4.6 / §6.3). A replica that detects the
// group has passed a checkpoint beyond its own execution point — because
// it just restarted, was partitioned away, or fell behind — advertises
// its partition digests; each peer answers with a manifest of its newest
// retained checkpoint and streams the partitions that diverge.

// stateXfer is one in-progress transfer from one sender: the
// self-consistency-verified manifest plus the partitions received and
// digest-verified so far, by index (nil: not yet).
type stateXfer struct {
	manifest StateManifest
	parts    [][]byte
}

// vouches reports whether x is a transfer of the checkpoint (seq, root).
func (x *stateXfer) vouches(seq uint64, root auth.Digest) bool {
	return x != nil && x.manifest.Seq == seq && x.manifest.Root == root
}

// stateFetcher owns the fetching side of state transfer: one in-progress
// transfer per authenticated sender — a cell per replica id, so a
// Byzantine peer streaming manifests only ever occupies its own — the
// senders banned for failing verification, the fetch target and retry
// timer, and the certification rule.
type stateFetcher struct {
	cfg    Config
	xfers  []*stateXfer // by sender; nil: none in progress
	banned []bool       // by sender, until the next successful adoption

	// target is the newest checkpoint F+1 peers are known to have passed
	// and this replica is missing; fetch retries stop once execution
	// reaches it.
	target   uint64
	fetching bool
	retry    sim.Timer

	// Cells of the node's stat table: completed transfers, and every
	// manifest or partition that failed verification (each one dropped and
	// banned its sender).
	transfers, rejects *uint64
}

func newStateFetcher(cfg Config, node *fabric.Node) *stateFetcher {
	return &stateFetcher{
		cfg:       cfg,
		xfers:     make([]*stateXfer, cfg.N),
		banned:    make([]bool, cfg.N),
		transfers: node.Counter("pbft.state_transfers"),
		rejects:   node.Counter("pbft.state_rejects"),
	}
}

// offerManifest verifies and stores a transfer manifest, reporting
// whether it was kept. Self-consistency — the root must be recomputable
// from the header and digest list — is checked before anything else, so
// every later per-partition check is anchored in a root that adoption
// will verify against F+1 matching manifests or a checkpoint certificate.
func (f *stateFetcher) offerManifest(ps PartitionedState, executed uint64, sender uint32, m StateManifest) bool {
	if m.Seq <= executed || int(sender) >= len(f.xfers) || f.banned[sender] {
		return false
	}
	if len(m.Digests) != ps.PartitionCount() || ps.ComposeRoot(m.Header, m.Digests) != m.Root {
		f.reject(sender)
		return false
	}
	if prev := f.xfers[sender]; prev != nil && prev.manifest.Seq > m.Seq {
		return false // keep the newer transfer
	}
	m.Header = bytes.Clone(m.Header) // lent by the message; Digests is decoded afresh
	f.xfers[sender] = &stateXfer{manifest: m, parts: make([][]byte, len(m.Digests))}
	return true
}

// offerPart verifies one received partition against its manifest's
// digest on arrival. The first mismatch drops the sender: a Byzantine
// peer can not feed junk bytes that are detected only after the whole
// state downloaded. hashed reports whether the data was digested (the
// caller charges the modeled cost), stored whether it verified.
func (f *stateFetcher) offerPart(sender uint32, m StatePart) (hashed, stored bool) {
	if int(sender) >= len(f.xfers) || f.banned[sender] {
		return false, false
	}
	x := f.xfers[sender]
	if x == nil || x.manifest.Seq != m.Seq {
		return false, false // no matching manifest (e.g. already pruned): ignore
	}
	if int(m.Part) >= len(x.manifest.Digests) {
		f.reject(sender)
		return false, false
	}
	if auth.Hash(m.Data) != x.manifest.Digests[m.Part] {
		f.reject(sender)
		return true, false
	}
	x.parts[m.Part] = append([]byte{}, m.Data...) // lent by the message; non-nil even when empty
	return true, true
}

// reject drops a sender's in-progress transfer after a failed
// verification and bans it until the next successful adoption.
func (f *stateFetcher) reject(sender uint32) {
	*f.rejects++
	f.xfers[sender] = nil
	f.banned[sender] = true
}

// peersAhead reports whether any collected manifest is beyond executed.
func (f *stateFetcher) peersAhead(executed uint64) bool {
	for _, x := range f.xfers {
		if x != nil && x.manifest.Seq > executed {
			return true
		}
	}
	return false
}

// prune drops transfers at or below the stable point: they can never be
// adopted (adoption requires seq > executed >= stable).
func (f *stateFetcher) prune(stable uint64) {
	for id, x := range f.xfers {
		if x != nil && x.manifest.Seq <= stable {
			f.xfers[id] = nil
		}
	}
}

// adopted ends a fetch round after a successful adoption. The next round
// starts from a clean slate: peers rejected for corrupt parts get another
// chance (the reject counter keeps the permanent record).
func (f *stateFetcher) adopted() {
	f.fetching = false
	f.retry.Cancel()
	clear(f.banned)
	*f.transfers++
}

var errRootMismatch = errors.New("pbft: applied transfer does not hash to the certified root")

// adoption is a transferred checkpoint that was certified, verified and
// applied, plus the view the replica should rejoin in.
type adoption struct {
	seq  uint64
	root auth.Digest
	view uint64
}

// tryAdopt installs a transferred checkpoint into ps if one is certified
// and complete, and retains it in cps as a base record. view is the
// replica's current view. Two certification paths:
//
//  1. F+1 senders vouch for the same (seq, root) — at least one of them
//     is correct.
//  2. A single manifest matches a checkpoint-quorum certificate this
//     replica assembled from the group's normal CHECKPOINT broadcasts
//     (2F+1 matching digests in cps). This is how a replica catches up
//     while the group keeps executing at full speed: peers' checkpoints
//     advance so quickly that F+1 identical manifests may never
//     accumulate, but certificates keep arriving.
//
// The state arrives as partitions that were each digest-verified on
// receipt; partitions already matching locally are reused without any
// transfer.
func (f *stateFetcher) tryAdopt(ps PartitionedState, cps *checkpointStore, executed, view uint64) (adoption, bool) {
	// Scan transfers in replica order, one adoption attempt per distinct
	// (seq, root) group — made at its lowest sender. The scan allocates
	// nothing until a certified group is complete: it runs on every
	// verified part.
scan:
	for id, x := range f.xfers {
		if x == nil || x.manifest.Seq <= executed {
			continue
		}
		seq, root := x.manifest.Seq, x.manifest.Root
		for _, other := range f.xfers[:id] {
			if other.vouches(seq, root) {
				continue scan // this group was tried at its lowest sender
			}
		}
		vouchers, vouchedView := 0, uint64(math.MaxUint64)
		for _, other := range f.xfers[id:] {
			if other.vouches(seq, root) {
				vouchers, vouchedView = vouchers+1, min(vouchedView, other.manifest.View)
			}
		}
		if vouchers < f.cfg.F+1 && cps.votes[seq].count(root) < f.cfg.Quorum() {
			continue
		}
		// Certified root. Every partition must be at hand: local ones
		// whose digests already match the manifest are reused as-is; the
		// divergent ones must have arrived (from any vouching sender —
		// parts are interchangeable once verified against the same digest
		// list). Only then is the partition set assembled, once.
		manifest := x.manifest
		for i, d := range manifest.Digests {
			if ps.PartitionDigest(i) != d && f.received(seq, root, i) == nil {
				continue scan // divergent partitions still streaming in
			}
		}
		parts := make([][]byte, len(manifest.Digests))
		for i, d := range manifest.Digests {
			if ps.PartitionDigest(i) == d {
				parts[i] = ps.MarshalPartition(i)
			} else {
				parts[i] = f.received(seq, root, i)
			}
		}
		prev := ps.MarshalState()
		err := ps.ApplyTransfer(manifest.Header, parts)
		if err == nil && ps.Snapshot() != root {
			// Defense in depth (the composition rules make this
			// unreachable for a conforming application): roll back.
			if err = ps.UnmarshalState(prev); err != nil {
				panic(fmt.Sprintf("pbft: failed to restore state after rejected transfer: %v", err))
			}
			err = errRootMismatch
		}
		if err != nil {
			// Digest-verified partitions under a certified root that still
			// fail to decode or compose: the vouching senders colluded on
			// a malformed encoding. Drop them and keep fetching.
			for j, other := range f.xfers {
				if other.vouches(seq, root) {
					f.reject(uint32(j))
				}
			}
			continue
		}
		// The View field is only corroborated when F+1 senders agree; a
		// lone certificate-backed manifest could carry an inflated view
		// that would wedge us. The minimum is conservative (at most as new
		// as some correct replica's view); a stale view only costs extra
		// view-change latency.
		if vouchers >= f.cfg.F+1 {
			view = vouchedView
		}
		cps.installBase(seq, root, ps.Applied(), manifest.Header, manifest.Digests, parts)
		return adoption{seq, root, view}, true
	}
	return adoption{}, false
}

// received returns partition i of the checkpoint (seq, root) as the first
// vouching sender delivered it, or nil if none has.
func (f *stateFetcher) received(seq uint64, root auth.Digest, i int) []byte {
	for _, x := range f.xfers {
		if x.vouches(seq, root) && x.parts[i] != nil {
			return x.parts[i]
		}
	}
	return nil
}

// Replica: requesting, serving and adopting state.

// StateTransfers returns the number of completed state transfers.
func (r *Replica) StateTransfers() uint64 { return *r.fetch.transfers }

// StateRejects returns how many transfer manifests or partitions failed
// digest verification on arrival (each one dropped its sender).
func (r *Replica) StateRejects() uint64 { return *r.fetch.rejects }

// StateBytesServed returns the serialized partition bytes this replica
// shipped to fetching peers.
func (r *Replica) StateBytesServed() uint64 { return *r.stateBytesServed }

// requestStateTransfer probes peers for their newest retained checkpoint
// (Cluster.Restart calls it for a rebooted replica). It is a no-op if the
// replica is stopped or a fetch is already in flight. Retries only persist
// while a checkpoint beyond our execution point is actually known to exist
// (the fetch target, maintained by recordCheckpoint): if no peer has
// anything to serve — the group has no checkpoint yet — the probe goes
// unanswered once and the replica stays quiet until live checkpoint votes
// reveal a gap, keeping an idle simulation drainable.
func (r *Replica) requestStateTransfer() {
	if r.stopped || r.fetch.fetching {
		return
	}
	r.fetch.fetching = true
	// Advertise our Merkle position so responders ship only the divergent
	// partitions. Snapshot and the digest list come from per-partition
	// caches, so this is cheap for a mostly-clean store.
	r.broadcast(StateRequest{Seq: r.executed, Replica: r.id, Root: r.app.Snapshot(), Digests: partitionDigests(r.app)})
	// If no adoptable transfer arrives, ask again — unless we caught up
	// through normal execution in the meantime. Retrying is warranted
	// while either a checkpoint is known to be missing or peers
	// demonstrably hold state ahead of us (manifests collected but not
	// yet adoptable, e.g. transiently scattered checkpoints); with
	// neither, the probe goes quiet so an idle simulation drains.
	r.fetch.retry = r.node.Loop().After(r.cfg.ViewTimeout, func() {
		if r.stopped || !r.fetch.fetching {
			return
		}
		r.fetch.fetching = false
		if r.executed < r.fetch.target || r.fetch.peersAhead(r.executed) {
			r.requestStateTransfer()
		}
	})
}

// partitionDigests returns a fresh list of every partition's current
// digest: what a state request advertises.
func partitionDigests(ps PartitionedState) []auth.Digest {
	out := make([]auth.Digest, ps.PartitionCount())
	for i := range out {
		out[i] = ps.PartitionDigest(i)
	}
	return out
}

func (r *Replica) handleStateRequest(sender uint32, m StateRequest) {
	// Serve the newest retained checkpoint beyond the requester's
	// execution point — not only the stable one. When F+1 replicas lag
	// together the group cannot certify any new stable checkpoint (the
	// certificate needs the laggards' own votes), yet the laggards can
	// still safely adopt a newer checkpoint: adoption demands F+1
	// responders vouching for the same (seq, root), so one correct
	// responder is always among them.
	rec := r.cps.latest(math.MaxUint64)
	if rec == nil || rec.seq <= m.Seq || len(m.Digests) != r.app.PartitionCount() {
		return // nothing to serve, requester as current as anything we hold, or not our partition layout
	}
	digests := make([]auth.Digest, len(m.Digests)) // the manifest's, built only to serve
	for i := range digests {
		_, digests[i] = r.cps.part(rec.seq, i)
	}
	// Subtree negotiation: open with the manifest, then stream only the
	// partitions whose digests diverge from the requester's. Reply to the
	// authenticated sender, not the claimed Replica field.
	r.send(sender, StateManifest{
		Seq: rec.seq, View: r.view, Root: rec.digest,
		Header: rec.header, Digests: digests, Replica: r.id,
	})
	for i, d := range digests {
		if m.Digests[i] == d {
			continue
		}
		data, _ := r.cps.part(rec.seq, i)
		*r.stateBytesServed += uint64(len(data))
		r.send(sender, StatePart{Seq: rec.seq, Part: uint32(i), Data: data, Replica: r.id})
	}
}

func (r *Replica) handleStateManifest(sender uint32, m StateManifest) {
	if r.fetch.offerManifest(r.app, r.executed, sender, m) {
		r.tryAdoptState()
	}
}

func (r *Replica) handleStatePart(sender uint32, m StatePart) {
	hashed, stored := r.fetch.offerPart(sender, m)
	if hashed {
		r.crypto(model.Digest, auth.DigestCost(r.node.Network().Params().Crypto, len(m.Data)))
	}
	if stored {
		r.tryAdoptState()
	}
}

// tryAdoptState adopts a transferred checkpoint if one is certified and
// complete, reporting success.
func (r *Replica) tryAdoptState() bool {
	a, ok := r.fetch.tryAdopt(r.app, r.cps, r.executed, r.view)
	if ok {
		r.adoptCheckpoint(a.seq, a.root, a.view)
	}
	return ok
}

// adoptCheckpoint installs a fetched checkpoint: the application state is
// already restored and the serving copy retained; fast-forward the
// agreement bookkeeping.
func (r *Replica) adoptCheckpoint(seq uint64, d auth.Digest, view uint64) {
	r.executed = seq
	if r.seqNext < seq {
		r.seqNext = seq
	}
	// Advertise the adopted checkpoint. When several replicas lagged
	// together, the group's stable checkpoint stalled precisely because
	// the laggards' votes were missing — this vote (plus the peers who
	// already voted) completes the certificate so everyone's watermark
	// window can move again.
	cp := Checkpoint{Seq: seq, Digest: d, Replica: r.id}
	r.recordCheckpoint(r.id, cp)
	r.broadcast(cp)
	if view > r.view {
		r.view = view
		// Observers track the current leader through this hook on
		// every other view-installation path; a recovered replica's
		// jump must be visible too.
		if r.onViewChange != nil {
			r.onViewChange(view)
		}
	}
	// The checkpoint subsumes every request ordered below it, but we
	// cannot tell which of the requests we are watching those are: drop
	// every row no slot above the new execution point names, clear the
	// progress timer's watch list and let live traffic re-arm. The rows
	// kept are the copies this replica's proposals above the checkpoint
	// name, which it needs to execute them; they leave the watch list
	// with the rest, so until their slots execute only a request filed
	// later re-arms the timer. Leaving it armed would fire a view-change
	// demand for a long-committed request and wedge the replica in
	// viewChanging — blocking the very catch-up the transfer enables.
	r.resetRequests(true)
	r.progress.Cancel()
	// Any view change we demanded was based on pre-transfer lag; rejoin
	// the group's current view instead of staying wedged. If a genuine
	// view change is in progress, its NEW-VIEW will reach us normally.
	r.settleView()
	r.advanceStable(seq) // also prunes transfers at or below seq
	r.fetch.adopted()
	if r.onCheckpointAdopt != nil {
		r.onCheckpointAdopt(seq)
	}
	// Commits above the checkpoint may already be quorate in the log.
	r.tryExecute()
	// An older certified checkpoint can win the adoption scan while a
	// newer one is still known to be missing; keep fetching until
	// execution reaches the target instead of going quiet here.
	if r.executed < r.fetch.target {
		r.requestStateTransfer()
	}
}
