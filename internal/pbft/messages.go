// Package pbft implements the Practical Byzantine Fault Tolerance protocol
// (Castro & Liskov, OSDI '99) — the agreement protocol Reptor runs — over
// the pluggable transport stacks, so the same replica code measures both
// the Java-NIO baseline and RUBIN.
//
// The implementation covers the full normal-case three-phase protocol
// (pre-prepare / prepare / commit) with request batching, HMAC
// authenticators on every replica message, periodic checkpoints with log
// garbage collection, and view changes driven by request timers. Fault
// injection hooks (Faults) let tests exercise Byzantine leaders and
// crashed replicas.
package pbft

import (
	"encoding/binary"
	"fmt"

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

// Key renders the request identity as text: the handle Client.Invoke
// returns and the id the observability layer traces the request under.
// Replica bookkeeping uses the allocation-free id() instead.
func (r Request) Key() string { return fmt.Sprintf("%d/%d", r.Client, r.Timestamp) }

// reqID is a request's identity — unique because each client's timestamps
// are — as a comparable map key for proposal, store and timer bookkeeping.
type reqID struct {
	client    uint32
	timestamp uint64
}

func (r Request) id() reqID { return reqID{r.Client, r.Timestamp} }

// PrePrepare is the leader's ordering proposal for one batch.
type PrePrepare struct {
	View   uint64
	Seq    uint64
	Digest auth.Digest // digest over the encoded batch
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

// Checkpoint advertises a replica's state digest at a checkpoint sequence.
type Checkpoint struct {
	Seq     uint64
	Digest  auth.Digest
	Replica uint32
}

// PreparedProof summarizes one prepared-but-unexecuted slot for a view
// change.
type PreparedProof struct {
	View   uint64
	Seq    uint64
	Digest auth.Digest
	Batch  []Request
}

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
func (r ReadRequest) Key() string { return fmt.Sprintf("%d/%d", r.Client, r.Timestamp) }

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

// ---------------------------------------------------------------------------
// Binary codec
// ---------------------------------------------------------------------------

// Message is the union of all protocol payloads.
type Message interface{ msgType() MsgType }

func (Request) msgType() MsgType       { return MsgRequest }
func (PrePrepare) msgType() MsgType    { return MsgPrePrepare }
func (Prepare) msgType() MsgType       { return MsgPrepare }
func (Commit) msgType() MsgType        { return MsgCommit }
func (Reply) msgType() MsgType         { return MsgReply }
func (Checkpoint) msgType() MsgType    { return MsgCheckpoint }
func (ViewChange) msgType() MsgType    { return MsgViewChange }
func (NewView) msgType() MsgType       { return MsgNewView }
func (StateRequest) msgType() MsgType  { return MsgStateRequest }
func (ReadRequest) msgType() MsgType   { return MsgReadRequest }
func (ReadReply) msgType() MsgType     { return MsgReadReply }
func (StateManifest) msgType() MsgType { return MsgStateManifest }
func (StatePart) msgType() MsgType     { return MsgStatePart }

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}
func (e *encoder) digest(d auth.Digest) { e.buf = append(e.buf, d[:]...) }

type decoder struct {
	buf []byte
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("pbft: truncated message")
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.buf) < 1 {
		d.fail()
		return 0
	}
	v := d.buf[0]
	d.buf = d.buf[1:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.buf) < 4 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf)
	d.buf = d.buf[4:]
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.buf) < 8 {
		d.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf)
	d.buf = d.buf[8:]
	return v
}

func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || len(d.buf) < n || n < 0 {
		d.fail()
		return nil
	}
	out := make([]byte, n)
	copy(out, d.buf[:n])
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) digest() auth.Digest {
	var out auth.Digest
	if d.err != nil || len(d.buf) < auth.DigestSize {
		d.fail()
		return out
	}
	copy(out[:], d.buf[:auth.DigestSize])
	d.buf = d.buf[auth.DigestSize:]
	return out
}

// count reads an element count, failing on one above limit: a forged
// count must not size an allocation or a loop.
func (d *decoder) count(limit int) int {
	n := int(d.u32())
	if d.err != nil || n < 0 || n > limit {
		d.fail()
		return 0
	}
	return n
}

func encodeRequests(e *encoder, reqs []Request) {
	e.u32(uint32(len(reqs)))
	for _, r := range reqs {
		e.u32(r.Client)
		e.u64(r.Timestamp)
		e.bytes(r.Op)
	}
}

// encodeProposal writes the fields PrePrepare and PreparedProof share.
func encodeProposal(e *encoder, pp PrePrepare) {
	e.u64(pp.View)
	e.u64(pp.Seq)
	e.digest(pp.Digest)
	encodeRequests(e, pp.Batch)
}

func decodeProposal(d *decoder) PrePrepare {
	return PrePrepare{View: d.u64(), Seq: d.u64(), Digest: d.digest(), Batch: decodeRequests(d)}
}

func encodeDigests(e *encoder, ds []auth.Digest) {
	e.u32(uint32(len(ds)))
	for _, d := range ds {
		e.digest(d)
	}
}

func decodeDigests(d *decoder) []auth.Digest {
	n := d.count(1 << 20)
	if n == 0 {
		return nil // nil round-trips to nil (reflect-equal for tests)
	}
	ds := make([]auth.Digest, 0, n)
	for i := 0; i < n; i++ {
		ds = append(ds, d.digest())
		if d.err != nil {
			return nil
		}
	}
	return ds
}

func decodeRequests(d *decoder) []Request {
	n := d.count(1 << 20)
	if d.err != nil {
		return nil
	}
	reqs := make([]Request, 0, n)
	for i := 0; i < n; i++ {
		r := Request{Client: d.u32(), Timestamp: d.u64(), Op: d.bytes()}
		if d.err != nil {
			return nil
		}
		reqs = append(reqs, r)
	}
	return reqs
}

// Encode serializes a protocol message with its type tag.
func Encode(m Message) []byte {
	e := &encoder{}
	e.u8(uint8(m.msgType()))
	switch v := m.(type) {
	case Request:
		e.u32(v.Client)
		e.u64(v.Timestamp)
		e.bytes(v.Op)
	case PrePrepare:
		encodeProposal(e, v)
	case Prepare:
		e.u64(v.View)
		e.u64(v.Seq)
		e.digest(v.Digest)
		e.u32(v.Replica)
	case Commit:
		e.u64(v.View)
		e.u64(v.Seq)
		e.digest(v.Digest)
		e.u32(v.Replica)
	case Reply:
		e.u64(v.View)
		e.u64(v.Timestamp)
		e.u32(v.Client)
		e.u32(v.Replica)
		e.bytes(v.Result)
	case Checkpoint:
		e.u64(v.Seq)
		e.digest(v.Digest)
		e.u32(v.Replica)
	case ViewChange:
		e.u64(v.NewView)
		e.u64(v.Stable)
		e.u32(uint32(len(v.Prepared)))
		for _, p := range v.Prepared {
			encodeProposal(e, PrePrepare(p))
		}
		e.u32(v.Replica)
	case NewView:
		e.u64(v.View)
		e.u32(uint32(len(v.PrePrepares)))
		for _, pp := range v.PrePrepares {
			encodeProposal(e, pp)
		}
	case StateRequest:
		e.u64(v.Seq)
		e.u32(v.Replica)
		e.digest(v.Root)
		encodeDigests(e, v.Digests)
	case StateManifest:
		e.u64(v.Seq)
		e.u64(v.View)
		e.digest(v.Root)
		e.bytes(v.Header)
		encodeDigests(e, v.Digests)
		e.u32(v.Replica)
	case StatePart:
		e.u64(v.Seq)
		e.u32(v.Part)
		e.bytes(v.Data)
		e.u32(v.Replica)
	case ReadRequest:
		e.u32(v.Client)
		e.u64(v.Timestamp)
		e.bytes(v.Op)
	case ReadReply:
		e.u64(v.Timestamp)
		e.u32(v.Client)
		e.u32(v.Replica)
		e.u64(v.Executed)
		e.bytes(v.Result)
	default:
		panic(fmt.Sprintf("pbft: cannot encode %T", m))
	}
	return e.buf
}

// Decode parses a serialized protocol message.
func Decode(raw []byte) (Message, error) {
	d := &decoder{buf: raw}
	t := MsgType(d.u8())
	var m Message
	switch t {
	case MsgRequest:
		m = Request{Client: d.u32(), Timestamp: d.u64(), Op: d.bytes()}
	case MsgPrePrepare:
		m = decodeProposal(d)
	case MsgPrepare:
		m = Prepare{View: d.u64(), Seq: d.u64(), Digest: d.digest(), Replica: d.u32()}
	case MsgCommit:
		m = Commit{View: d.u64(), Seq: d.u64(), Digest: d.digest(), Replica: d.u32()}
	case MsgReply:
		m = Reply{View: d.u64(), Timestamp: d.u64(), Client: d.u32(), Replica: d.u32(), Result: d.bytes()}
	case MsgCheckpoint:
		m = Checkpoint{Seq: d.u64(), Digest: d.digest(), Replica: d.u32()}
	case MsgViewChange:
		vc := ViewChange{NewView: d.u64(), Stable: d.u64()}
		for n := d.count(1 << 20); n > 0 && d.err == nil; n-- {
			vc.Prepared = append(vc.Prepared, PreparedProof(decodeProposal(d)))
		}
		vc.Replica = d.u32()
		m = vc
	case MsgNewView:
		nv := NewView{View: d.u64()}
		for n := d.count(1 << 20); n > 0 && d.err == nil; n-- {
			nv.PrePrepares = append(nv.PrePrepares, decodeProposal(d))
		}
		m = nv
	case MsgStateRequest:
		m = StateRequest{Seq: d.u64(), Replica: d.u32(), Root: d.digest(), Digests: decodeDigests(d)}
	case MsgStateManifest:
		m = StateManifest{Seq: d.u64(), View: d.u64(), Root: d.digest(), Header: d.bytes(), Digests: decodeDigests(d), Replica: d.u32()}
	case MsgStatePart:
		m = StatePart{Seq: d.u64(), Part: d.u32(), Data: d.bytes(), Replica: d.u32()}
	case MsgReadRequest:
		m = ReadRequest{Client: d.u32(), Timestamp: d.u64(), Op: d.bytes()}
	case MsgReadReply:
		m = ReadReply{Timestamp: d.u64(), Client: d.u32(), Replica: d.u32(), Executed: d.u64(), Result: d.bytes()}
	default:
		return nil, fmt.Errorf("pbft: unknown message type %d", t)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("pbft: %d trailing bytes", len(d.buf))
	}
	return m, nil
}

// prePrepareSize returns len(Encode(PrePrepare{Batch: batch})) without
// encoding: type tag, view, sequence, digest and request count, then per
// request client, timestamp and the length-prefixed operation. It sizes
// the modeled digest charge of a proposal.
func prePrepareSize(batch []Request) int {
	n := 1 + 8 + 8 + auth.DigestSize + 4
	for _, r := range batch {
		n += 4 + 8 + 4 + len(r.Op)
	}
	return n
}

// BatchDigest computes the digest a pre-prepare commits to.
func BatchDigest(batch []Request) auth.Digest {
	e := &encoder{}
	encodeRequests(e, batch)
	return auth.Hash(e.buf)
}
