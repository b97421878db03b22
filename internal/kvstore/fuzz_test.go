package kvstore

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// fuzzSeedStates returns marshaled states (valid and corrupted) seeding
// FuzzUnmarshalState with inputs that reach every parse arm.
func fuzzSeedStates() [][]byte {
	empty := New()
	small := New()
	small.Execute(EncodeOp(OpPut, "alpha", "1"))
	small.Execute(EncodeOp(OpPut, "beta", "two"))
	small.Execute(EncodeOp(OpDelete, "alpha", ""))
	valid := small.MarshalState()

	truncated := bytes.Clone(valid)[:len(valid)-3]
	hugeKeyLen := bytes.Clone(valid)
	binary.BigEndian.PutUint32(hugeKeyLen[8:], 0xFFFFFFFF)

	return [][]byte{
		empty.MarshalState(),
		valid,
		truncated,
		hugeKeyLen,
		{},
		{0, 0, 0, 0, 0, 0, 0},       // shorter than the applied counter
		{0, 0, 0, 0, 0, 0, 0, 1, 9}, // counter plus a dangling length byte
	}
}

// FuzzUnmarshalState asserts the state codec is total: arbitrary input
// either loads into a store whose canonical re-marshaling is a fixed
// point, or returns an error — it must never panic. Corrupted snapshots
// (truncated payloads, hostile length fields) land on the error path.
func FuzzUnmarshalState(f *testing.F) {
	for _, seed := range fuzzSeedStates() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		if err := s.UnmarshalState(data); err != nil {
			return
		}
		// Accepted: the canonical form must round-trip exactly. (The
		// input itself may be non-canonical — unsorted or duplicate
		// keys — so it is the re-marshaling that must be the fixed
		// point, and the snapshot digest must follow it.)
		m := bytes.Clone(s.MarshalState())
		s2 := New()
		if err := s2.UnmarshalState(m); err != nil {
			t.Fatalf("canonical state rejected: %v", err)
		}
		if !bytes.Equal(s2.MarshalState(), m) {
			t.Fatalf("re-marshaling is not a fixed point:\n%x\nvs\n%x", m, s2.MarshalState())
		}
		if s2.Applied() != s.Applied() || keyCount(s2) != keyCount(s) {
			t.Fatalf("round trip changed counters: applied %d->%d, len %d->%d",
				s.Applied(), s2.Applied(), keyCount(s), keyCount(s2))
		}
		if s2.Snapshot() != s.Snapshot() {
			t.Fatal("round trip changed the snapshot digest")
		}
	})
}

// FuzzDecodeOp asserts the operation codec is total and canonical —
// whatever DecodeOp accepts must re-encode byte-identically — and fuzzes
// the byte decoder where it is used: Execute and ExecuteReadOnly never
// panic, answer with DecodeOp's error exactly when it errors, and agree on
// every read.
func FuzzDecodeOp(f *testing.F) {
	f.Add(EncodeOp(OpPut, "k1", "v1"))
	f.Add(EncodeOp(OpGet, "k1", ""))
	f.Add(EncodeOp(OpDelete, "", ""))
	f.Add(EncodeOp(OpScan, "k00", "16"))
	f.Add(EncodeScanPart("k", 4, 1, 3))
	f.Add(EncodeTxn("t1", []TxnSub{{OpPut, "a", "1"}, {OpGet, "b", ""}}))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		code, key, value, err := DecodeOp(data)
		ordered, tentative := string(New().Execute(data)), string(New().ExecuteReadOnly(data))
		if err != nil {
			if want := "ERR " + err.Error(); ordered != want || tentative != want {
				t.Fatalf("%x: DecodeOp says %q, Execute %q, ExecuteReadOnly %q", data, want, ordered, tentative)
			}
			return
		}
		if re := EncodeOp(code, key, value); !bytes.Equal(re, data) {
			t.Fatalf("non-canonical accept: %x re-encodes to %x", data, re)
		}
		for _, reply := range []string{ordered, tentative} {
			if strings.HasPrefix(reply, "ERR kvstore: truncated op") || strings.HasSuffix(reply, "trailing bytes after op") {
				t.Fatalf("%x decodes, yet is answered %q", data, reply)
			}
		}
		if (code == OpGet || code == OpScan || code == OpScanPart) && ordered != tentative {
			t.Fatalf("%x: Execute %q, ExecuteReadOnly %q", data, ordered, tentative)
		}
	})
}
