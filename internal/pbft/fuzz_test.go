package pbft

import (
	"bytes"
	"testing"

	"rubin/internal/auth"
)

// fuzzSeedMessages returns one valid encoding per protocol message type,
// seeding the fuzzers with inputs that reach every decode arm.
func fuzzSeedMessages() [][]byte {
	var d auth.Digest
	for i := range d {
		d[i] = byte(i)
	}
	batch := []Request{{Client: 7, Timestamp: 3, Op: []byte("put/k/v")}}
	msgs := []Message{
		Request{Client: 1, Timestamp: 2, Op: []byte("op")},
		PrePrepare{View: 1, Seq: 2, Digest: d, Refs: refsOf(batch)},
		Fetch{Seq: 2, Replica: 3},
		Prepare{View: 1, Seq: 2, Digest: d, Replica: 3},
		Commit{View: 1, Seq: 2, Digest: d, Replica: 3},
		Reply{View: 1, Timestamp: 2, Client: 3, Replica: 0, Result: []byte("r")},
		Checkpoint{Seq: 64, Digest: d, Replica: 2},
		ViewChange{NewView: 2, Stable: 64, Prepared: []PreparedProof{{View: 1, Seq: 65, Digest: d, Refs: refsOf(batch)}, {View: 1, Seq: 66, Digest: d}}, Replica: 1},
		NewView{View: 2, PrePrepares: []PrePrepare{{View: 2, Seq: 65, Digest: d, Refs: refsOf(batch)}, {View: 2, Seq: 66, Digest: d}}},
		StateRequest{Seq: 12, Replica: 1},
		StateRequest{Seq: 12, Replica: 1, Root: d, Digests: []auth.Digest{d, d}},
		ReadRequest{Client: 1, Timestamp: 2, Op: []byte("get/k")},
		ReadReply{Timestamp: 2, Client: 1, Replica: 3, Executed: 17, Result: []byte("v")},
		StateManifest{Seq: 64, View: 2, Root: d, Header: []byte("hd"), Digests: []auth.Digest{d}, Replica: 1},
		StatePart{Seq: 64, Part: 3, Data: []byte("part"), Replica: 1},
	}
	out := make([][]byte, len(msgs))
	for i, m := range msgs {
		out[i] = Encode(m)
	}
	return out
}

// refEncoder returns an encoder over a buffer roomy enough for any
// reference encoding these tests write field by field.
func refEncoder() *encoder { return &encoder{buf: make([]byte, 0, 2<<20)} }

// retiredType10Frame is a well-formed body of the retired whole-snapshot
// response (seq, view, digest, state bytes, replica) under its old type
// byte: the most plausible type-10 frame an old peer could still send.
func retiredType10Frame() []byte {
	e := refEncoder()
	e.u8(10)
	e.u64(64)
	e.u64(2)
	e.digest(auth.Hash([]byte("root")))
	e.bytes([]byte("state"))
	e.u32(1)
	return e.buf
}

// FuzzDecode asserts the protocol codec is total: arbitrary input either
// decodes into a message whose canonical re-encoding is byte-identical to
// the input, or errors — it must never panic and never accept two
// encodings of the same message.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzSeedMessages() {
		f.Add(seed)
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00})
	f.Add(retiredType10Frame())
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		if len(data) > 0 && data[0] == 10 {
			t.Fatalf("retired wire type 10 decoded to %T", m)
		}
		if m == nil {
			t.Fatal("Decode returned nil message without error")
		}
		if re := Encode(m); !bytes.Equal(re, data) || encodedSize(m) != len(data) {
			t.Fatalf("non-canonical accept: %x decodes to %T (sized %d) but re-encodes to %x", data, m, encodedSize(m), re)
		}
	})
}

// FuzzDecodeReadRequest focuses the codec fuzzer on the read fast-path
// request arm: every input is forced onto the ReadRequest type tag, so
// the fuzzer explores that decoder's length and bounds handling instead
// of spreading over all message types. Accepted inputs must decode to a
// ReadRequest and re-encode byte-identically (in particular, trailing
// bytes must be rejected, never silently dropped).
func FuzzDecodeReadRequest(f *testing.F) {
	f.Add(Encode(ReadRequest{Client: 1, Timestamp: 2, Op: []byte("get/k")})[1:])
	f.Add(Encode(ReadRequest{Client: 0, Timestamp: 0, Op: nil})[1:])
	f.Add(append(Encode(ReadRequest{Client: 9, Timestamp: 9, Op: []byte("x")})[1:], 0)) // trailing byte
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		data := append([]byte{byte(MsgReadRequest)}, body...)
		m, err := Decode(data)
		if err != nil {
			return
		}
		if _, ok := m.(ReadRequest); !ok {
			t.Fatalf("read-request tag decoded to %T", m)
		}
		if re := Encode(m); !bytes.Equal(re, data) {
			t.Fatalf("non-canonical accept: %x re-encodes to %x", data, re)
		}
	})
}

// FuzzDecodeReadReply does the same for the tentative-reply arm.
func FuzzDecodeReadReply(f *testing.F) {
	f.Add(Encode(ReadReply{Timestamp: 2, Client: 1, Replica: 3, Executed: 17, Result: []byte("v")})[1:])
	f.Add(Encode(ReadReply{})[1:])
	f.Add(append(Encode(ReadReply{Timestamp: 1, Client: 1, Replica: 1, Result: []byte("r")})[1:], 0))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, body []byte) {
		data := append([]byte{byte(MsgReadReply)}, body...)
		m, err := Decode(data)
		if err != nil {
			return
		}
		if _, ok := m.(ReadReply); !ok {
			t.Fatalf("read-reply tag decoded to %T", m)
		}
		if re := Encode(m); !bytes.Equal(re, data) {
			t.Fatalf("non-canonical accept: %x re-encodes to %x", data, re)
		}
	})
}

// FuzzDecodeEnvelope asserts the authenticated-envelope codec is total
// and canonical in the same way.
func FuzzDecodeEnvelope(f *testing.F) {
	ring := auth.GenerateKeyrings(4, 1)[0]
	payload := Encode(Prepare{View: 1, Seq: 2, Replica: 0})
	f.Add(encodeEnvelope(Envelope{Sender: 0, Payload: payload, Auth: ring.Authenticate(payload)}))
	f.Add(encodeEnvelope(Envelope{Sender: 3, Payload: []byte{}}))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := DecodeEnvelope(data)
		if err != nil {
			return
		}
		if re := encodeEnvelope(env); !bytes.Equal(re, data) {
			t.Fatalf("non-canonical accept: %x re-encodes to %x", data, re)
		}
	})
}
