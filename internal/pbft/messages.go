// Package pbft implements the Practical Byzantine Fault Tolerance protocol
// (Castro & Liskov, OSDI '99) — the agreement protocol Reptor runs — over
// the pluggable transport stacks, so the same replica code measures both
// the Java-NIO baseline and RUBIN.
//
// The implementation covers the full normal-case three-phase protocol
// (pre-prepare / prepare / commit) with request batching, HMAC
// authenticators on every replica message, periodic checkpoints with log
// garbage collection, and view changes driven by request timers. Every
// message a replica sends leaves through one exit, where a test may
// install an Outbox that drops, delays or rewrites it: that is how the
// tests make a replica Byzantine. Stop crashes one.
package pbft

import (
	"fmt"
	"strconv"

	"rubin/internal/auth"
)

// MsgType discriminates protocol messages on the wire.
type MsgType uint8

// Protocol message types.
const (
	MsgRequest MsgType = iota + 1
	MsgPrePrepare
	MsgPrepare
	MsgCommit
	MsgReply
	MsgCheckpoint
	MsgViewChange
	MsgNewView
	MsgStateRequest
	_ // 10 is retired (the legacy whole-snapshot StateResponse): never reused, so every later type keeps its byte
	MsgReadRequest
	MsgReadReply
	MsgStateManifest
	MsgStatePart
	MsgFetch
)

var msgTypeNames = [...]string{
	MsgRequest:       "REQUEST",
	MsgPrePrepare:    "PRE-PREPARE",
	MsgPrepare:       "PREPARE",
	MsgCommit:        "COMMIT",
	MsgReply:         "REPLY",
	MsgCheckpoint:    "CHECKPOINT",
	MsgViewChange:    "VIEW-CHANGE",
	MsgNewView:       "NEW-VIEW",
	MsgStateRequest:  "STATE-REQUEST",
	MsgReadRequest:   "READ-REQUEST",
	MsgReadReply:     "READ-REPLY",
	MsgStateManifest: "STATE-MANIFEST",
	MsgStatePart:     "STATE-PART",
	MsgFetch:         "FETCH",
}

func (t MsgType) String() string {
	if int(t) < len(msgTypeNames) && msgTypeNames[t] != "" {
		return msgTypeNames[t]
	}
	return fmt.Sprintf("msg(%d)", uint8(t))
}

// Request is a client operation to be ordered and executed.
type Request struct {
	Client    uint32
	Timestamp uint64 // client-local, provides exactly-once semantics
	Op        []byte
}

// RequestID is a request's identity — unique because each client's
// timestamps are — and comparable: the key of a replica's request table and
// of every log that names requests without holding them.
type RequestID struct {
	Client    uint32
	Timestamp uint64
}

// ID returns the request's identity; it allocates nothing.
func (r Request) ID() RequestID { return RequestID{r.Client, r.Timestamp} }

// Key renders the request identity as text, "client/timestamp": the handle
// Client.Invoke returns and the id the observability layer traces the
// request under, in one allocation (the string).
func (r Request) Key() string { return r.ID().Key() }

// Key renders the identity as text, as Request.Key does.
func (id RequestID) Key() string {
	var b [10 + 1 + 20]byte // the longest uint32, a slash, the longest uint64
	key := append(strconv.AppendUint(b[:0], uint64(id.Client), 10), '/')
	return string(strconv.AppendUint(key, id.Timestamp, 10))
}

// RequestRef names a request inside a pre-prepare: its identity and the
// digest of its operation. A proposal carries refs, not requests (Castro &
// Liskov, TOCS 2002, separate request transmission): every replica has the
// client's own copy and executes it once the copy's digest matches.
type RequestRef struct {
	RequestID
	Digest auth.Digest
}

// refOf returns the ref that names req.
func refOf(req Request) RequestRef { return RequestRef{req.ID(), auth.Hash(req.Op)} }

// PrePrepare is the leader's ordering proposal for one batch, and the
// layout of a VIEW-CHANGE's proofs and a NEW-VIEW's re-proposals: each
// carries Refs, and Digest commits to them (BatchDigest). Batch is read
// only by Encode, which writes the refs of the requests it holds.
type PrePrepare struct {
	View   uint64
	Seq    uint64
	Digest auth.Digest
	Refs   []RequestRef
	Batch  []Request
}

// Prepare is a backup's agreement echo for a proposal.
type Prepare struct {
	View    uint64
	Seq     uint64
	Digest  auth.Digest
	Replica uint32
}

// Commit finalizes a prepared proposal.
type Commit struct {
	View    uint64
	Seq     uint64
	Digest  auth.Digest
	Replica uint32
}

// Reply carries an execution result back to the client.
type Reply struct {
	View      uint64
	Timestamp uint64
	Client    uint32
	Replica   uint32
	Result    []byte
}

// Fetch asks the sender of a proposal for the requests it names: a backup
// that holds no copy of some of them sends it, and the answer is each
// request as an authenticated REQUEST.
type Fetch struct {
	Seq     uint64
	Replica uint32
}

// Checkpoint advertises a replica's state digest at a checkpoint sequence.
type Checkpoint struct {
	Seq     uint64
	Digest  auth.Digest
	Replica uint32
}

// PreparedProof summarizes one prepared-but-unexecuted slot for a view
// change: the proposal that prepared there, in the proposal's own layout;
// its sender holds the requests it names.
type PreparedProof = PrePrepare

// ViewChange asks to move to a new view, carrying the prepared set above
// the sender's last stable checkpoint.
type ViewChange struct {
	NewView  uint64
	Stable   uint64
	Prepared []PreparedProof
	Replica  uint32
}

// NewView is the new leader's installation message re-proposing the
// prepared slots.
type NewView struct {
	View        uint64
	PrePrepares []PrePrepare
}

// StateRequest asks peers for the state at their newest retained
// checkpoint. A restarted or lagging replica sends it when it detects
// that the group has advanced past its own execution point (Castro &
// Liskov §4.6, state transfer).
type StateRequest struct {
	// Seq is the requester's last executed sequence; peers respond only
	// if they retain a checkpoint beyond it.
	Seq     uint64
	Replica uint32
	// Root and Digests describe the requester's current Merkle state: the
	// root digest plus every leaf partition digest. A responder streams
	// only the partitions whose digests diverge, and ignores a request
	// whose digest list does not have its own partition count.
	Root    auth.Digest
	Digests []auth.Digest
}

// StateManifest opens a state transfer: it describes one retained
// checkpoint of a partitioned application — the quorum-certifiable root,
// the transfer header (application metadata outside the partitions) and
// every leaf partition digest. The requester verifies the manifest is
// self-consistent (ComposeRoot(Header, Digests) == Root), then verifies
// every arriving StatePart against Digests, so a Byzantine responder is
// caught on the first corrupt partition rather than after a full
// download. Adoption still requires the root be certified by F+1 matching
// manifests or a checkpoint-quorum certificate.
type StateManifest struct {
	// Seq is the responder's retained checkpoint sequence.
	Seq uint64
	// View is the responder's current view, letting a restarted replica
	// rejoin the active view instead of timing out from view 0.
	View uint64
	// Root is the checkpoint's state digest (the Merkle root).
	Root auth.Digest
	// Header is the application's transfer header at the checkpoint.
	Header []byte
	// Digests are the leaf partition digests at the checkpoint.
	Digests []auth.Digest
	Replica uint32
}

// StatePart carries one divergent partition of a state transfer. It
// rides msgnet's bulk class, so streaming a large state never
// head-of-line-blocks agreement traffic.
type StatePart struct {
	// Seq is the checkpoint sequence of the manifest this part belongs to.
	Seq uint64
	// Part is the partition index.
	Part uint32
	// Data is the serialized partition; auth.Hash(Data) must equal the
	// manifest's Digests[Part].
	Data    []byte
	Replica uint32
}

// ReadRequest asks every replica to execute a side-effect-free operation
// tentatively against its last-executed state, bypassing agreement
// (Castro & Liskov §4.4, the read-only optimization). It shares the
// client's timestamp counter with ordered Requests, so a read that falls
// back to the ordered path keeps a unique timestamp.
type ReadRequest struct {
	Client    uint32
	Timestamp uint64
	Op        []byte
}

// Key identifies a read for timer bookkeeping and tracing, in the same
// namespace as Request keys (timestamps are shared, so keys are unique).
func (r ReadRequest) Key() string { return Request(r).Key() }

// ReadReply carries a tentative read result. Executed is the replica's
// last-executed sequence number — the state position the read was served
// from. The client accepts a result once 2F+1 replicas report the same
// bytes; the tag is evidence for diagnosing stale replies, not part of
// the matching rule.
type ReadReply struct {
	Timestamp uint64
	Client    uint32
	Replica   uint32
	Executed  uint64
	Result    []byte
}
