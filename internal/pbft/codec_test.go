package pbft

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"rubin/internal/auth"
	"rubin/internal/raceflag"
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
		PrePrepare{View: 3, Seq: 4, Digest: d, Refs: refsOf(reqs)},
		Fetch{Seq: 4, Replica: 2},
		Prepare{View: 3, Seq: 4, Digest: d, Replica: 2},
		Commit{View: 3, Seq: 4, Digest: d, Replica: 1},
		Reply{View: 3, Timestamp: 9, Client: 7, Replica: 0, Result: []byte("OK")},
		Checkpoint{Seq: 64, Digest: d, Replica: 3},
		ViewChange{NewView: 5, Stable: 64, Replica: 2,
			Prepared: []PreparedProof{{View: 4, Seq: 65, Digest: d, Refs: refsOf(reqs)}, {View: 4, Seq: 66, Digest: d}}},
		NewView{View: 5, PrePrepares: []PrePrepare{{View: 5, Seq: 65, Digest: d, Refs: refsOf(reqs)}, {View: 5, Seq: 66, Digest: d}}},
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
	switch v := m.(type) {
	case Request:
		v.Op = fix(v.Op)
		return v
	case Reply:
		v.Result = fix(v.Result)
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

func batchOf(n, opBytes int) []Request {
	b := make([]Request, n)
	for i := range b {
		b[i] = Request{Client: 100, Timestamp: uint64(i + 1), Op: bytes.Repeat([]byte{byte(i + 1)}, opBytes)}
	}
	return b
}

// refsOf returns the refs that name batch's requests (nil for none, as a
// decoded PRE-PREPARE holds).
func refsOf(batch []Request) []RequestRef {
	var refs []RequestRef
	for _, req := range batch {
		refs = append(refs, refOf(req))
	}
	return refs
}

// codecTable holds every message type, the variable-length ones at empty,
// small and 32 KiB-operation sizes — a pre-prepare both as a replica sends
// it, by refs, and holding its requests instead, and a VIEW-CHANGE's
// proofs and a NEW-VIEW's re-proposals in the same layout.
func codecTable() []Message {
	d := auth.Hash([]byte("digest"))
	var msgs []Message
	for _, batch := range [][]Request{nil, batchOf(1, 0), batchOf(8, 128), batchOf(8, 32<<10)} {
		msgs = append(msgs,
			PrePrepare{View: 3, Seq: 4, Digest: d, Refs: refsOf(batch)},
			PrePrepare{View: 3, Seq: 4, Digest: d, Batch: batch},
			ViewChange{NewView: 5, Stable: 64, Replica: 2, Prepared: []PreparedProof{{View: 4, Seq: 65, Digest: d, Refs: refsOf(batch)}, {View: 4, Seq: 66, Digest: d}}},
			NewView{View: 5, PrePrepares: []PrePrepare{{View: 5, Seq: 65, Digest: d, Refs: refsOf(batch)}, {View: 5, Seq: 66, Digest: d}}},
		)
	}
	for _, b := range [][]byte{nil, []byte("x"), make([]byte, 32<<10)} {
		msgs = append(msgs,
			Request{Client: 1, Timestamp: 2, Op: b},
			Reply{View: 3, Timestamp: 9, Client: 7, Replica: 1, Result: b},
			ReadRequest{Client: 1, Timestamp: 2, Op: b},
			ReadReply{Timestamp: 2, Client: 1, Replica: 3, Executed: 17, Result: b},
			StatePart{Seq: 64, Part: 17, Data: b, Replica: 2},
			StateManifest{Seq: 64, View: 5, Root: d, Header: b, Digests: []auth.Digest{auth.Hash(nil), d}, Replica: 2},
		)
	}
	return append(msgs,
		Prepare{View: 3, Seq: 4, Digest: d, Replica: 2},
		Commit{View: 3, Seq: 4, Digest: d, Replica: 1},
		Checkpoint{Seq: 64, Digest: d, Replica: 3},
		Fetch{Seq: 4, Replica: 2},
		ViewChange{NewView: 5, Stable: 64, Replica: 2},
		NewView{View: 5},
		StateRequest{Seq: 42, Replica: 3},
		StateRequest{Seq: 42, Replica: 3, Root: d, Digests: []auth.Digest{d, auth.Hash(nil)}},
		StateManifest{Seq: 64, View: 5, Root: d, Replica: 2},
	)
}

// TestEncodeIsSizeExact pins the arithmetic that sizes every outgoing
// buffer and every modeled crypto charge to the codec: encodedSize is the
// encoded length, and Encode is one allocation of exactly that size.
func TestEncodeIsSizeExact(t *testing.T) {
	for _, m := range codecTable() {
		raw := Encode(m)
		if got := encodedSize(m); got != len(raw) || cap(raw) != len(raw) {
			t.Errorf("%T: encodedSize %d, encoded length %d, capacity %d", m, got, len(raw), cap(raw))
		}
		if raceflag.Enabled {
			continue
		}
		if allocs := testing.AllocsPerRun(20, func() { Encode(m) }); allocs != 1 {
			t.Errorf("Encode(%T) allocates %v times, want 1", m, allocs)
		}
	}
}

// encodeEnvelope is the reference envelope encoding: the fields written
// one after another through the growing encoder.
func encodeEnvelope(env Envelope) []byte {
	e := refEncoder()
	e.u32(env.Sender)
	e.bytes(env.Payload)
	e.u32(uint32(len(env.Auth)))
	for _, mac := range env.Auth {
		e.bytes(mac)
	}
	return e.buf
}

// TestSealMatchesReference checks the one-buffer envelope against
// encoding and authenticating separately — a pre-prepare's MACs over its
// header (type, view, sequence, batch digest), every other type's over its
// whole payload: same bytes, the payload's type and the covered length,
// every receiver verifies its MAC over the aliased payload — and it is the
// replica's scratch: made exactly by first use, no allocation after,
// whatever the order of sizes.
func TestSealMatchesReference(t *testing.T) {
	rings := auth.GenerateKeyrings(4, 7)
	sender := &Replica{id: 2, keyring: rings[2]}
	for _, m := range codecTable() {
		payload := Encode(m)
		covered := payload
		if _, isPP := m.(PrePrepare); isPP {
			covered = payload[:1+8+8+auth.DigestSize]
		}
		want := encodeEnvelope(Envelope{Sender: 2, Payload: payload, Auth: rings[2].Authenticate(covered)})
		fresh := &Replica{id: 2, keyring: rings[2]}
		if first, _, _ := fresh.seal(m); !bytes.Equal(first, want) || cap(first) != len(first) {
			t.Fatalf("%T: a first seal differs from the reference or over-allocates (len %d/%d, cap %d)", m, len(first), len(want), cap(first))
		}
		got, typ, size := sender.seal(m)
		if !bytes.Equal(got, want) || typ != MsgType(payload[0]) || size != len(covered) {
			t.Fatalf("%T: sealed envelope differs from the reference (len %d/%d, type %v, size %d)", m, len(got), len(want), typ, size)
		}
		env, err := DecodeEnvelope(got)
		if err != nil {
			t.Fatal(err)
		}
		bad, _ := DecodeEnvelope(flipMACs(got))
		for _, to := range []int{0, 1, 3} {
			if !rings[to].Verify(2, env.Payload[:len(covered)], env.Auth[to]) {
				t.Errorf("%T: replica %d rejects the sealed envelope", m, to)
			}
			if rings[to].Verify(2, bad.Payload[:len(covered)], bad.Auth[to]) {
				t.Errorf("%T: replica %d accepts corrupted MACs", m, to)
			}
		}
		if raceflag.Enabled {
			continue
		}
		if allocs := testing.AllocsPerRun(20, func() { sender.seal(m) }); allocs != 0 {
			t.Errorf("seal(%T) into a scratch that fits allocates %v times, want 0", m, allocs)
		}
	}
}

// TestDecodeAliasesInput pins decode-by-reference, the up rule: every byte
// field of a decoded message or envelope — boxed by Decode or by value in
// the record the receive paths dispatch on — lies inside the input buffer,
// with its capacity cut to its length.
func TestDecodeAliasesInput(t *testing.T) {
	inside := func(field, raw []byte) bool {
		if len(field) == 0 {
			return true
		}
		for i := range raw {
			if &raw[i] == &field[0] {
				return cap(field) == len(field) && i+len(field) <= len(raw)
			}
		}
		return false
	}
	req := batchOf(1, 100)[0]
	raw, _, _ := (&Replica{keyring: auth.GenerateKeyrings(4, 7)[0]}).seal(req)
	env, err := DecodeEnvelope(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !inside(env.Payload, raw) {
		t.Error("envelope payload does not alias the input")
	}
	for i, mac := range env.Auth {
		if !inside(mac, raw) {
			t.Errorf("MAC %d does not alias the input", i)
		}
	}
	m, err := Decode(env.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if op := m.(Request).Op; !inside(op, raw) || !bytes.Equal(op, req.Op) {
		t.Error("a sealed request's operation does not alias the input")
	}
	for _, m := range []Message{
		Reply{Result: []byte("result")}, ReadReply{Result: []byte("result")}, ReadRequest{Op: []byte("op")},
		StatePart{Data: []byte("data")}, StateManifest{Header: []byte("header")},
	} {
		raw := Encode(m)
		out, err := Decode(raw)
		if err != nil {
			t.Fatal(err)
		}
		var field []byte
		switch v := out.(type) {
		case Reply:
			field = v.Result
		case ReadReply:
			field = v.Result
		case ReadRequest:
			field = v.Op
		case StatePart:
			field = v.Data
		case StateManifest:
			field = v.Header
		}
		if len(field) == 0 || !inside(field, raw) {
			t.Errorf("%T: byte field does not alias the input", m)
		}
		// The by-value record the receive paths decode into holds the very
		// same sub-slice: nothing is copied on the way to a handler either.
		var v decoded
		if err := v.decode(raw); err != nil {
			t.Fatal(err)
		}
		set := 0
		for _, f := range [][]byte{v.request.Op, v.reply.Result, v.read.Result, v.part.Data, v.manifest.Header} {
			if len(f) > 0 {
				set++
				if !inside(f, raw) || &f[0] != &field[0] {
					t.Errorf("%T: the by-value decoder's byte field does not alias the input", m)
				}
			}
		}
		if set != 1 {
			t.Errorf("%T: the by-value decoder set %d byte fields, want 1", m, set)
		}
	}
	var v decoded
	if err := v.decode(env.Payload); err != nil || v.typ != MsgRequest || !inside(v.request.Op, raw) {
		t.Errorf("by-value decode of a sealed request: %v (type %v), or its operation does not alias the input", err, v.typ)
	}
}

// TestBatchDigestStreamsTheEncoding checks the streamed digest against
// its definition — the hash of the refs a PRE-PREPARE carries — including
// on a reused digester, which must carry nothing from one batch to the
// next, and BatchDigest, which names the requests by ref itself.
func TestBatchDigestStreamsTheEncoding(t *testing.T) {
	var reused batchDigester
	for _, batch := range [][]Request{nil, {}, batchOf(1, 0), batchOf(1, 5), batchOf(8, 128), batchOf(8, 32<<10), batchOf(1, 1<<20)} {
		e := refEncoder()
		encodeRefs(e, PrePrepare{Refs: refsOf(batch)})
		want := auth.Hash(e.buf)
		if got := BatchDigest(batch); got != want {
			t.Errorf("BatchDigest of %d requests differs from the hash of their refs", len(batch))
		}
		if got := reused.digest(refsOf(batch)); got != want {
			t.Errorf("reused digester of %d refs differs from the hash of their encoding", len(batch))
		}
	}
	if raceflag.Enabled {
		return
	}
	refs := refsOf(batchOf(8, 32<<10))
	if allocs := testing.AllocsPerRun(10, func() { reused.digest(refs) }); allocs != 0 {
		t.Errorf("a reused digester allocates %v times per batch, want 0", allocs)
	}
}

// TestPrePrepareSizeIsIndependentOfPayload: a PRE-PREPARE names its
// requests by ref, so a leader's proposal of eight 32 KiB requests encodes
// to as many bytes as one of eight 128 B requests — as does a PrePrepare
// handed to Encode holding the requests themselves — and carries no byte
// of an operation.
func TestPrePrepareSizeIsIndependentOfPayload(t *testing.T) {
	var sizes []int
	for _, opBytes := range []int{128, 32 << 10} {
		batch := batchOf(8, opBytes)
		leader := bareReplica(t, 0, DefaultConfig())
		for _, req := range batch {
			leader.handleRequest(req, nil)
		}
		s := leader.lookup(1)
		if s == nil || !s.proposed {
			t.Fatalf("%d B requests: the leader proposed nothing", opBytes)
		}
		raw := Encode(s.pp)
		if bytes.Contains(raw, batch[0].Op) {
			t.Errorf("%d B requests: the pre-prepare carries an operation", opBytes)
		}
		sizes = append(sizes, len(raw), len(Encode(PrePrepare{View: 1, Seq: 7, Digest: BatchDigest(batch), Batch: batch})))
	}
	if want := 1 + 8 + 8 + auth.DigestSize + 4 + 8*refSize; sizes[0] != want || sizes[1] != want || sizes[2] != want || sizes[3] != want {
		t.Errorf("pre-prepares of 8 × 128 B and 8 × 32 KiB encode to %v bytes (proposed, handed over), want %d each", sizes, want)
	}
}

// TestWireTypeBytesStable pins the type bytes that follow the retired
// type 10: retiring it must not renumber them.
func TestWireTypeBytesStable(t *testing.T) {
	for want, got := range map[uint8]MsgType{
		9: MsgStateRequest, 11: MsgReadRequest, 12: MsgReadReply, 13: MsgStateManifest, 14: MsgStatePart, 15: MsgFetch,
	} {
		if uint8(got) != want {
			t.Errorf("%s is wire type %d, want %d", got, uint8(got), want)
		}
	}
}

func TestBatchDigestDistinguishesBatches(t *testing.T) {
	a := []Request{{Client: 1, Timestamp: 1, Op: []byte("x")}}
	b := []Request{{Client: 1, Timestamp: 2, Op: []byte("x")}}
	c := []Request{{Client: 1, Timestamp: 1, Op: []byte("y")}}
	if BatchDigest(a) == BatchDigest(b) || BatchDigest(a) == BatchDigest(c) {
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
	got, err := DecodeEnvelope(encodeEnvelope(env))
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

// Property: a PrePrepare holding arbitrary requests decodes to the refs
// that name them, and its digest is the one those refs digest to.
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
		var b batchDigester
		return ok && got.View == view && got.Seq == seq && got.Digest == pp.Digest && got.Batch == nil &&
			reflect.DeepEqual(got.Refs, refsOf(batch)) && b.digest(got.Refs) == pp.Digest
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
