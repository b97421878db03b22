package pbft

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"slices"

	"rubin/internal/auth"
)

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
func (Fetch) msgType() MsgType         { return MsgFetch }

// encoder fills buf, which its creator sized exactly (a short buffer
// panics instead of growing). With buf nil it only counts in n the bytes
// it would write: a message is sized by the code that encodes it, so size
// and encoding cannot drift apart.
type encoder struct {
	buf []byte
	n   int
}

// next returns the next n bytes of buf to fill, nil when only counting.
func (e *encoder) next(n int) []byte {
	e.n += n
	if e.buf == nil {
		return nil
	}
	e.buf = e.buf[:len(e.buf)+n]
	return e.buf[len(e.buf)-n:]
}

func (e *encoder) u8(v uint8) { copy(e.next(1), []byte{v}) }
func (e *encoder) u32(v uint32) {
	copy(e.next(4), []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}
func (e *encoder) u64(v uint64)         { e.u32(uint32(v >> 32)); e.u32(uint32(v)) }
func (e *encoder) digest(d auth.Digest) { copy(e.next(len(d)), d[:]) }
func (e *encoder) bytes(b []byte) {
	e.u32(uint32(len(b)))
	copy(e.next(len(b)), b)
}

// decoder consumes buf field by field; the first short read sticks in err
// and every later field reads as zero.
type decoder struct {
	buf []byte
	err error
}

// errTruncated is a value, so dropping malformed input allocates nothing.
var errTruncated = errors.New("pbft: truncated message")

// take consumes the next n bytes as a sub-slice of the input, its capacity
// cut to its length so an append by the holder cannot run into the bytes
// that follow.
func (d *decoder) take(n int) []byte {
	if d.err != nil || n < 0 || len(d.buf) < n {
		d.err = errTruncated
		return nil
	}
	out := d.buf[:n:n]
	d.buf = d.buf[n:]
	return out
}

// uint reads an n-byte big-endian integer.
func (d *decoder) uint(n int) (v uint64) {
	for _, b := range d.take(n) {
		v = v<<8 | uint64(b)
	}
	return v
}

func (d *decoder) u8() uint8     { return uint8(d.uint(1)) }
func (d *decoder) u32() uint32   { return uint32(d.uint(4)) }
func (d *decoder) u64() uint64   { return d.uint(8) }
func (d *decoder) bytes() []byte { return d.take(int(d.u32())) }
func (d *decoder) digest() (out auth.Digest) {
	copy(out[:], d.take(auth.DigestSize))
	return out
}

// end is the verdict on a fully walked input: canonical encodings only, so
// bytes left over are an error like bytes missing.
func (d *decoder) end() error {
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("pbft: %d trailing bytes", len(d.buf))
	}
	return d.err
}

// count reads an element count, failing on one above limit: a forged
// count must not size an allocation or a loop.
func (d *decoder) count(limit int) int {
	n := int(d.u32())
	if n < 0 || n > limit {
		d.err = errTruncated
		return 0
	}
	return n
}

// encodeRequest writes the layout Request and ReadRequest share.
func encodeRequest(e *encoder, r Request) {
	e.u32(r.Client)
	e.u64(r.Timestamp)
	e.bytes(r.Op)
}

func decodeRequest(d *decoder) Request {
	return Request{Client: d.u32(), Timestamp: d.u64(), Op: d.bytes()}
}

// refSize is the encoded length of a RequestRef: client, timestamp, digest.
const refSize = 4 + 8 + auth.DigestSize

func (e *encoder) ref(ref RequestRef) {
	e.u32(ref.Client)
	e.u64(ref.Timestamp)
	e.digest(ref.Digest)
}

// encodeRefs writes what a proposal carries: its Refs, or — for a
// PrePrepare handed to Encode holding its requests instead, as the
// benchmark's codec probe does — theirs, digested here unless the encoder
// is only counting.
func encodeRefs(e *encoder, pp PrePrepare) {
	if pp.Refs == nil {
		e.u32(uint32(len(pp.Batch)))
		for _, req := range pp.Batch {
			if e.buf == nil {
				e.next(refSize)
				continue
			}
			e.ref(refOf(req))
		}
		return
	}
	e.u32(uint32(len(pp.Refs)))
	for _, ref := range pp.Refs {
		e.ref(ref)
	}
}

// decodeRefs reads a proposal's refs into one slice, sized by a count no
// longer than the input could hold: into scratch's, regrown if it is too
// short, or with scratch nil into a slice of their own.
func decodeRefs(d *decoder, scratch *[]RequestRef) []RequestRef {
	n := d.count(len(d.buf) / refSize)
	if n == 0 {
		return nil
	}
	var refs []RequestRef
	if scratch == nil {
		refs = make([]RequestRef, n)
	} else {
		refs = slices.Grow((*scratch)[:0], n)[:n]
		*scratch = refs
	}
	for i := range refs {
		refs[i] = RequestRef{RequestID{d.u32(), d.u64()}, d.digest()}
	}
	return refs
}

// encodeProposal writes the one proposal layout — a PRE-PREPARE's, a
// VIEW-CHANGE proof's and a NEW-VIEW re-proposal's: header and refs.
func encodeProposal(e *encoder, pp PrePrepare) {
	e.u64(pp.View)
	e.u64(pp.Seq)
	e.digest(pp.Digest)
	encodeRefs(e, pp)
}

func decodeProposal(d *decoder, scratch *[]RequestRef) PrePrepare {
	return PrePrepare{View: d.u64(), Seq: d.u64(), Digest: d.digest(), Refs: decodeRefs(d, scratch)}
}

// encodeProposals writes the proposal list of a VIEW-CHANGE or a NEW-VIEW.
func encodeProposals(e *encoder, pps []PrePrepare) {
	e.u32(uint32(len(pps)))
	for _, pp := range pps {
		encodeProposal(e, pp)
	}
}

func decodeProposals(d *decoder) (pps []PrePrepare) {
	for n := d.count(1 << 20); n > 0 && d.err == nil; n-- {
		pps = append(pps, decodeProposal(d, nil))
	}
	return pps
}

// encodeVote writes the layout Prepare and Commit share.
func encodeVote(e *encoder, v Prepare) {
	e.u64(v.View)
	e.u64(v.Seq)
	e.digest(v.Digest)
	e.u32(v.Replica)
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

// Encode serializes a protocol message with its type tag, in one
// allocation of exactly its encoded size.
func Encode(m Message) []byte { return encodeTo(new([]byte), m) }

// room empties an owner's send scratch, regrown first if it cannot hold n
// bytes. The scratch is made by first use, never ahead of it, and reused
// for every message after: sound for bytes handed straight to Peer.Send,
// which copies before it returns, and for nothing that keeps them.
func room(scratch *[]byte, n int) []byte {
	if cap(*scratch) < n {
		*scratch = make([]byte, 0, n)
	}
	return (*scratch)[:0]
}

// encodeTo is Encode into the owner's scratch: what it returns is valid
// until the owner's next use of the scratch.
func encodeTo(scratch *[]byte, m Message) []byte {
	e := &encoder{buf: room(scratch, encodedSize(m))}
	e.message(m)
	return e.buf
}

// message appends m behind its type tag. m must not escape from here — no
// dynamic m.msgType(), no %T — or every struct a caller passes as Message
// is boxed on the heap: each arm asks its own concrete type for the tag.
func (e *encoder) message(m Message) {
	switch v := m.(type) {
	case Request:
		e.u8(uint8(v.msgType()))
		encodeRequest(e, v)
	case ReadRequest:
		e.u8(uint8(v.msgType()))
		encodeRequest(e, Request(v))
	case PrePrepare:
		e.u8(uint8(v.msgType()))
		encodeProposal(e, v)
	case Prepare:
		e.u8(uint8(v.msgType()))
		encodeVote(e, v)
	case Commit:
		e.u8(uint8(v.msgType()))
		encodeVote(e, Prepare(v))
	case Reply:
		e.u8(uint8(v.msgType()))
		e.u64(v.View)
		e.u64(v.Timestamp)
		e.u32(v.Client)
		e.u32(v.Replica)
		e.bytes(v.Result)
	case Checkpoint:
		e.u8(uint8(v.msgType()))
		e.u64(v.Seq)
		e.digest(v.Digest)
		e.u32(v.Replica)
	case ViewChange:
		e.u8(uint8(v.msgType()))
		e.u64(v.NewView)
		e.u64(v.Stable)
		encodeProposals(e, v.Prepared)
		e.u32(v.Replica)
	case NewView:
		e.u8(uint8(v.msgType()))
		e.u64(v.View)
		encodeProposals(e, v.PrePrepares)
	case StateRequest:
		e.u8(uint8(v.msgType()))
		e.u64(v.Seq)
		e.u32(v.Replica)
		e.digest(v.Root)
		encodeDigests(e, v.Digests)
	case StateManifest:
		e.u8(uint8(v.msgType()))
		e.u64(v.Seq)
		e.u64(v.View)
		e.digest(v.Root)
		e.bytes(v.Header)
		encodeDigests(e, v.Digests)
		e.u32(v.Replica)
	case StatePart:
		e.u8(uint8(v.msgType()))
		e.u64(v.Seq)
		e.u32(v.Part)
		e.bytes(v.Data)
		e.u32(v.Replica)
	case ReadReply:
		e.u8(uint8(v.msgType()))
		e.u64(v.Timestamp)
		e.u32(v.Client)
		e.u32(v.Replica)
		e.u64(v.Executed)
		e.bytes(v.Result)
	case Fetch:
		e.u8(uint8(v.msgType()))
		e.u64(v.Seq)
		e.u32(v.Replica)
	default:
		panic("pbft: cannot encode a message of this type")
	}
}

// decoded is one message decoded by value: typ names the field that is
// set. A receive path declares one on its stack and dispatches on typ, so a
// delivered message costs the heap only what its handler keeps. Twin
// layouts share a field: request holds a Request or a ReadRequest, vote a
// Prepare or a Commit.
type decoded struct {
	refs     *[]RequestRef // unless nil, the scratch a PRE-PREPARE's refs are decoded into
	typ      MsgType
	claimed  uint32 // the replica the message names as its origin, if claims
	claims   bool
	request  Request
	proposal PrePrepare
	vote     Prepare
	reply    Reply
	cp       Checkpoint
	vc       ViewChange
	nv       NewView
	stateReq StateRequest
	manifest StateManifest
	part     StatePart
	read     ReadReply
	fetch    Fetch
}

// decode parses a serialized protocol message into m. The byte fields of
// the result (operations, results, transfer headers and partitions) alias
// raw and are valid while raw is, and a PRE-PREPARE's refs, with m.refs
// set, the scratch: a receive path, lent both until its handler returns,
// copies what it keeps.
func (m *decoded) decode(raw []byte) error {
	d := decoder{buf: raw}
	m.claims = false
	switch m.typ = MsgType(d.u8()); m.typ {
	case MsgRequest, MsgReadRequest:
		m.request = decodeRequest(&d)
	case MsgPrePrepare:
		m.proposal = decodeProposal(&d, m.refs)
	case MsgPrepare, MsgCommit:
		m.vote = Prepare{View: d.u64(), Seq: d.u64(), Digest: d.digest(), Replica: m.origin(&d)}
	case MsgReply:
		m.reply = Reply{View: d.u64(), Timestamp: d.u64(), Client: d.u32(), Replica: m.origin(&d), Result: d.bytes()}
	case MsgCheckpoint:
		m.cp = Checkpoint{Seq: d.u64(), Digest: d.digest(), Replica: m.origin(&d)}
	case MsgViewChange:
		m.vc = ViewChange{NewView: d.u64(), Stable: d.u64(), Prepared: decodeProposals(&d), Replica: m.origin(&d)}
	case MsgNewView:
		m.nv = NewView{View: d.u64(), PrePrepares: decodeProposals(&d)}
	case MsgStateRequest:
		m.stateReq = StateRequest{Seq: d.u64(), Replica: m.origin(&d), Root: d.digest(), Digests: decodeDigests(&d)}
	case MsgStateManifest:
		m.manifest = StateManifest{Seq: d.u64(), View: d.u64(), Root: d.digest(), Header: d.bytes(), Digests: decodeDigests(&d), Replica: m.origin(&d)}
	case MsgStatePart:
		m.part = StatePart{Seq: d.u64(), Part: d.u32(), Data: d.bytes(), Replica: m.origin(&d)}
	case MsgReadReply:
		m.read = ReadReply{Timestamp: d.u64(), Client: d.u32(), Replica: m.origin(&d), Executed: d.u64(), Result: d.bytes()}
	case MsgFetch:
		m.fetch = Fetch{Seq: d.u64(), Replica: m.origin(&d)}
	default:
		return fmt.Errorf("pbft: unknown message type %d", m.typ)
	}
	return d.end()
}

// origin reads the Replica field of a message that carries its origin.
func (m *decoded) origin(d *decoder) uint32 {
	m.claimed, m.claims = d.u32(), true
	return m.claimed
}

// Decode is decode boxed: the message as a value of its own type, for
// callers that want one rather than a dispatch (tests, the benchmark's
// codec probe). Its byte fields alias raw under decode's rule.
func Decode(raw []byte) (Message, error) {
	var m decoded
	if err := m.decode(raw); err != nil {
		return nil, err
	}
	return boxed[m.typ](m), nil
}

// boxed[t] boxes the field of a decoded message that typ t names.
var boxed = [...]func(decoded) Message{
	MsgRequest:       func(m decoded) Message { return m.request },
	MsgReadRequest:   func(m decoded) Message { return ReadRequest(m.request) },
	MsgPrePrepare:    func(m decoded) Message { return m.proposal },
	MsgPrepare:       func(m decoded) Message { return m.vote },
	MsgCommit:        func(m decoded) Message { return Commit(m.vote) },
	MsgReply:         func(m decoded) Message { return m.reply },
	MsgCheckpoint:    func(m decoded) Message { return m.cp },
	MsgViewChange:    func(m decoded) Message { return m.vc },
	MsgNewView:       func(m decoded) Message { return m.nv },
	MsgStateRequest:  func(m decoded) Message { return m.stateReq },
	MsgStateManifest: func(m decoded) Message { return m.manifest },
	MsgStatePart:     func(m decoded) Message { return m.part },
	MsgReadReply:     func(m decoded) Message { return m.read },
	MsgFetch:         func(m decoded) Message { return m.fetch },
}

// encodedSize returns len(Encode(m)) without encoding. It sizes every
// outgoing buffer and the modeled crypto charges, which depend on size
// alone.
func encodedSize(m Message) int {
	var e encoder
	e.message(m)
	return e.n
}

// batchDigester computes the digest a pre-prepare commits to — SHA-256 over
// the bytes encodeRefs produces — by streaming them into a Reset-reused
// hash state. Single-goroutine state, like auth.Keyring; ref and sum are
// scratches that keep a digest allocation-free.
type batchDigester struct {
	h   hash.Hash
	ref [refSize]byte
	sum auth.Digest
}

func (b *batchDigester) digest(refs []RequestRef) auth.Digest {
	if b.h == nil {
		b.h = sha256.New()
	}
	b.h.Reset()
	binary.BigEndian.PutUint32(b.ref[:], uint32(len(refs)))
	b.h.Write(b.ref[:4])
	for _, ref := range refs {
		binary.BigEndian.PutUint32(b.ref[:], ref.Client)
		binary.BigEndian.PutUint64(b.ref[4:], ref.Timestamp)
		copy(b.ref[12:], ref.Digest[:])
		b.h.Write(b.ref[:])
	}
	b.h.Sum(b.sum[:0])
	return b.sum
}

// BatchDigest computes the digest a pre-prepare of batch commits to: the
// digest of the refs that name its requests.
func BatchDigest(batch []Request) auth.Digest {
	refs := make([]RequestRef, len(batch))
	for i, req := range batch {
		refs[i] = refOf(req)
	}
	var b batchDigester
	return b.digest(refs)
}
