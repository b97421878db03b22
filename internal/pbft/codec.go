package pbft

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"

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

// bytes returns a length-prefixed field as a sub-slice of the input, its
// capacity cut to its length so an append by the holder cannot run into
// the bytes that follow.
func (d *decoder) bytes() []byte {
	n := int(d.u32())
	if d.err != nil || len(d.buf) < n || n < 0 {
		d.fail()
		return nil
	}
	out := d.buf[:n:n]
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

// Encode serializes a protocol message with its type tag, in one
// allocation of exactly its encoded size.
func Encode(m Message) []byte {
	e := &encoder{buf: make([]byte, 0, encodedSize(m))}
	e.message(m)
	return e.buf
}

// message appends m behind its type tag.
func (e *encoder) message(m Message) {
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
}

// Decode parses a serialized protocol message. The byte fields of the
// result (operations, results, transfer headers and partitions) alias raw:
// the caller must own raw and leave it unchanged for as long as it keeps
// the message.
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

// encodedSize returns len(Encode(m)) without encoding. It sizes every
// outgoing buffer and the modeled crypto charges, which depend on size
// alone.
func encodedSize(m Message) int {
	var e encoder
	e.message(m)
	return e.n
}

// batchDigester computes the digest a pre-prepare commits to — SHA-256 over
// the bytes encodeRequests produces — by streaming them into a Reset-reused
// hash state, so no batch-sized buffer exists. Single-goroutine state, like
// auth.Keyring; hdr and sum are scratches that keep a digest allocation-free.
type batchDigester struct {
	h   hash.Hash
	hdr [4 + 8 + 4]byte // client, timestamp, operation length
	sum auth.Digest
}

func (b *batchDigester) digest(batch []Request) auth.Digest {
	if b.h == nil {
		b.h = sha256.New()
	}
	b.h.Reset()
	binary.BigEndian.PutUint32(b.hdr[:], uint32(len(batch)))
	b.h.Write(b.hdr[:4])
	for _, r := range batch {
		binary.BigEndian.PutUint32(b.hdr[:], r.Client)
		binary.BigEndian.PutUint64(b.hdr[4:], r.Timestamp)
		binary.BigEndian.PutUint32(b.hdr[12:], uint32(len(r.Op)))
		b.h.Write(b.hdr[:])
		b.h.Write(r.Op)
	}
	b.h.Sum(b.sum[:0])
	return b.sum
}

// BatchDigest computes the digest a pre-prepare commits to.
func BatchDigest(batch []Request) auth.Digest {
	var b batchDigester
	return b.digest(batch)
}
