package pbft

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"rubin/internal/auth"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	out, err := Decode(Encode(m))
	if err != nil {
		t.Fatalf("Decode(Encode(%T)): %v", m, err)
	}
	return out
}

func TestCodecRoundTripAllTypes(t *testing.T) {
	d := auth.Hash([]byte("digest"))
	reqs := []Request{
		{Client: 7, Timestamp: 9, Op: []byte("op-1")},
		{Client: 8, Timestamp: 10, Op: nil},
	}
	msgs := []Message{
		Request{Client: 1, Timestamp: 2, Op: []byte("x")},
		PrePrepare{View: 3, Seq: 4, Digest: d, Batch: reqs},
		Prepare{View: 3, Seq: 4, Digest: d, Replica: 2},
		Commit{View: 3, Seq: 4, Digest: d, Replica: 1},
		Reply{View: 3, Timestamp: 9, Client: 7, Replica: 0, Result: []byte("OK")},
		Checkpoint{Seq: 64, Digest: d, Replica: 3},
		ViewChange{NewView: 5, Stable: 64, Replica: 2,
			Prepared: []PreparedProof{{View: 4, Seq: 65, Digest: d, Batch: reqs}}},
		NewView{View: 5, PrePrepares: []PrePrepare{{View: 5, Seq: 65, Digest: d, Batch: reqs}}},
		StateRequest{Seq: 42, Replica: 3},
		StateRequest{Seq: 42, Replica: 3, Root: d, Digests: []auth.Digest{d, auth.Hash(nil)}},
		StateManifest{Seq: 64, View: 5, Root: d, Header: []byte("hdr"), Digests: []auth.Digest{auth.Hash(nil), d}, Replica: 2},
		StatePart{Seq: 64, Part: 17, Data: []byte("bucket-bytes"), Replica: 2},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		// Normalize nil-vs-empty slices inside batches for comparison.
		if !messagesEquivalent(m, got) {
			t.Errorf("%T round trip mismatch:\n in: %+v\nout: %+v", m, m, got)
		}
	}
}

// messagesEquivalent compares messages treating nil and empty byte slices
// as equal (the codec does not distinguish them).
func messagesEquivalent(a, b Message) bool {
	return reflect.DeepEqual(normalize(a), normalize(b))
}

func normalize(m Message) Message {
	fix := func(b []byte) []byte {
		if len(b) == 0 {
			return []byte{}
		}
		return b
	}
	fixReqs := func(rs []Request) []Request {
		out := make([]Request, len(rs))
		for i, r := range rs {
			r.Op = fix(r.Op)
			out[i] = r
		}
		return out
	}
	switch v := m.(type) {
	case Request:
		v.Op = fix(v.Op)
		return v
	case PrePrepare:
		v.Batch = fixReqs(v.Batch)
		return v
	case Reply:
		v.Result = fix(v.Result)
		return v
	case ViewChange:
		for i := range v.Prepared {
			v.Prepared[i].Batch = fixReqs(v.Prepared[i].Batch)
		}
		return v
	case NewView:
		for i := range v.PrePrepares {
			v.PrePrepares[i].Batch = fixReqs(v.PrePrepares[i].Batch)
		}
		return v
	case StateManifest:
		v.Header = fix(v.Header)
		return v
	case StatePart:
		v.Data = fix(v.Data)
		return v
	default:
		return m
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0},                     // unknown type
		{99},                    // unknown type
		{10},                    // retired type
		retiredType10Frame(),    // retired type, well-formed legacy body
		{byte(MsgPrepare)},      // truncated
		{byte(MsgRequest), 1},   // truncated
		{byte(MsgCommit), 0, 0}, // truncated
	}
	for _, raw := range cases {
		if _, err := Decode(raw); err == nil {
			t.Errorf("Decode(%v) should fail", raw)
		}
	}
	// Trailing bytes are also rejected.
	good := Encode(Prepare{View: 1, Seq: 2, Replica: 3})
	if _, err := Decode(append(good, 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestPrePrepareSizeMatchesEncoding pins the arithmetic the leader uses to
// size a proposal's digest charge to the codec, so the modeled cost is
// exactly what encoding-to-measure used to yield.
func TestPrePrepareSizeMatchesEncoding(t *testing.T) {
	batchOf := func(n, opBytes int) []Request {
		b := make([]Request, n)
		for i := range b {
			b[i] = Request{Client: 100, Timestamp: uint64(i + 1), Op: make([]byte, opBytes)}
		}
		return b
	}
	for _, tc := range []struct {
		name  string
		batch []Request
	}{
		{"empty", nil},
		{"1x0B", batchOf(1, 0)},
		{"8x128B", batchOf(8, 128)},
		{"8x32KiB", batchOf(8, 32<<10)},
	} {
		if got, want := prePrepareSize(tc.batch), len(Encode(PrePrepare{Batch: tc.batch})); got != want {
			t.Errorf("%s: prePrepareSize = %d, encoded length %d", tc.name, got, want)
		}
	}
}

// TestWireTypeBytesStable pins the type bytes that follow the retired
// type 10: retiring it must not renumber them.
func TestWireTypeBytesStable(t *testing.T) {
	for want, got := range map[uint8]MsgType{
		9: MsgStateRequest, 11: MsgReadRequest, 12: MsgReadReply, 13: MsgStateManifest, 14: MsgStatePart,
	} {
		if uint8(got) != want {
			t.Errorf("%s is wire type %d, want %d", got, uint8(got), want)
		}
	}
}

func TestBatchDigestDistinguishesBatches(t *testing.T) {
	a := []Request{{Client: 1, Timestamp: 1, Op: []byte("x")}}
	b := []Request{{Client: 1, Timestamp: 2, Op: []byte("x")}}
	if BatchDigest(a) == BatchDigest(b) {
		t.Fatal("different batches share a digest")
	}
	if BatchDigest(a) != BatchDigest(a) {
		t.Fatal("digest not deterministic")
	}
	if BatchDigest(nil) != BatchDigest([]Request{}) {
		t.Fatal("nil and empty batches should digest identically")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	env := Envelope{Sender: 2, Payload: []byte("payload"), Auth: auth.Authenticator{nil, []byte("mac1"), []byte("mac2")}}
	got, err := DecodeEnvelope(EncodeEnvelope(env))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sender != 2 || !bytes.Equal(got.Payload, []byte("payload")) {
		t.Fatalf("envelope mismatch: %+v", got)
	}
	if len(got.Auth) != 3 || !bytes.Equal(got.Auth[1], []byte("mac1")) {
		t.Fatalf("authenticator mismatch: %+v", got.Auth)
	}
}

func TestEnvelopeDecodeRejectsGarbage(t *testing.T) {
	for _, raw := range [][]byte{nil, {1}, {0, 0, 0, 1, 0xFF, 0xFF, 0xFF}} {
		if _, err := DecodeEnvelope(raw); err == nil {
			t.Errorf("DecodeEnvelope(%v) should fail", raw)
		}
	}
}

// Property: Request encoding round-trips for arbitrary field values.
func TestPropertyRequestCodec(t *testing.T) {
	prop := func(client uint32, ts uint64, op []byte) bool {
		m, err := Decode(Encode(Request{Client: client, Timestamp: ts, Op: op}))
		if err != nil {
			return false
		}
		r, ok := m.(Request)
		return ok && r.Client == client && r.Timestamp == ts && bytes.Equal(r.Op, op)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics on arbitrary input (it may error).
func TestPropertyDecodeTotal(t *testing.T) {
	prop := func(raw []byte) bool {
		_, _ = Decode(raw)
		_, _ = DecodeEnvelope(raw)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: PrePrepare with arbitrary batches round-trips.
func TestPropertyPrePrepareCodec(t *testing.T) {
	prop := func(view, seq uint64, ops [][]byte) bool {
		var batch []Request
		for i, op := range ops {
			batch = append(batch, Request{Client: uint32(i), Timestamp: uint64(i), Op: op})
		}
		pp := PrePrepare{View: view, Seq: seq, Digest: BatchDigest(batch), Batch: batch}
		m, err := Decode(Encode(pp))
		if err != nil {
			return false
		}
		got, ok := m.(PrePrepare)
		if !ok || got.View != view || got.Seq != seq || got.Digest != pp.Digest || len(got.Batch) != len(batch) {
			return false
		}
		for i := range batch {
			if !bytes.Equal(got.Batch[i].Op, batch[i].Op) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
