package kvstore

import (
	"bytes"
	"testing"
)

// TestOpReadOnlyClassification pins which operations the tentative-read
// path serves: ExecuteReadOnly refuses everything that could mutate the
// store, and bytes that do not decode.
func TestOpReadOnlyClassification(t *testing.T) {
	cases := []struct {
		name string
		op   []byte
		want bool
	}{
		{"get", EncodeOp(OpGet, "k", ""), true},
		{"scan", EncodeOp(OpScan, "pre", "10"), true},
		{"scan-part", EncodeOp(OpScanPart, "pre", "10 0 4"), true},
		{"put", EncodeOp(OpPut, "k", "v"), false},
		{"delete", EncodeOp(OpDelete, "k", ""), false},
		{"txn", EncodeOp(OpTxn, "t1", "r:a"), false},
		{"prepare", EncodeOp(OpPrepare, "t1", ""), false},
		{"commit", EncodeOp(OpCommit, "t1", ""), false},
		{"abort", EncodeOp(OpAbort, "t1", ""), false},
		{"malformed", []byte{0xFF, 1, 2}, false},
		{"empty", nil, false},
	}
	for _, tc := range cases {
		res := New().ExecuteReadOnly(tc.op)
		if got := !bytes.HasPrefix(res, []byte("ERR ")); got != tc.want {
			t.Errorf("%s: served read-only = %v (%q), want %v", tc.name, got, res, tc.want)
		}
	}
}

// TestExecuteReadOnlyMatchesExecute pins the tentative read contract:
// for every read-only operation, ExecuteReadOnly returns byte-identical
// results to Execute on the same state — and leaves the store's applied
// counter, marshaled state and checkpoint digest untouched, where
// Execute advances them even for reads.
func TestExecuteReadOnlyMatchesExecute(t *testing.T) {
	build := func() *Store {
		s := New()
		s.Execute(EncodeOp(OpPut, "a1", "x"))
		s.Execute(EncodeOp(OpPut, "a2", "y"))
		s.Execute(EncodeOp(OpPut, "b1", "z"))
		return s
	}
	ops := [][]byte{
		EncodeOp(OpGet, "a1", ""),
		EncodeOp(OpGet, "missing", ""),
		EncodeOp(OpScan, "a", ""),
		EncodeOp(OpScan, "a", "1"),
		EncodeOp(OpScan, "a", "bogus"),
		EncodeOp(OpScanPart, "a", "0/2/0"),
		EncodeOp(OpScanPart, "a", "1/2/0"),
		{0xFF, 0, 1}, // malformed: both paths answer ERR
	}
	for _, op := range ops {
		ordered := build()
		tentative := build()
		applied, state, digest := tentative.Applied(), tentative.MarshalState(), tentative.Snapshot()
		want := ordered.Execute(op)
		got := tentative.ExecuteReadOnly(op)
		if !bytes.Equal(got, want) {
			t.Errorf("op %q: ExecuteReadOnly = %q, Execute = %q", op, got, want)
		}
		if tentative.Applied() != applied {
			t.Errorf("op %q: tentative read advanced the applied counter", op)
		}
		if tentative.Snapshot() != digest {
			t.Errorf("op %q: tentative read changed the checkpoint digest", op)
		}
		if !bytes.Equal(tentative.MarshalState(), state) {
			t.Errorf("op %q: tentative read changed the marshaled state", op)
		}
	}
}

// TestExecuteReadOnlyRefusesMutations proves the tentative path cannot
// be abused to write: non-read-only operations are refused and the
// store stays byte-identical.
func TestExecuteReadOnlyRefusesMutations(t *testing.T) {
	s := New()
	s.Execute(EncodeOp(OpPut, "k", "v"))
	digest := s.Snapshot()
	for _, op := range [][]byte{
		EncodeOp(OpPut, "k", "v2"),
		EncodeOp(OpDelete, "k", ""),
		EncodeOp(OpTxn, "t1", "w:k=v3"),
	} {
		res := s.ExecuteReadOnly(op)
		if !bytes.HasPrefix(res, []byte("ERR")) {
			t.Errorf("mutation %q accepted on the read-only path: %q", op, res)
		}
	}
	if s.Snapshot() != digest {
		t.Fatal("refused mutations still changed the state")
	}
	if v, ok := s.Get("k"); !ok || v != "v" {
		t.Fatalf("value corrupted: %q %v", v, ok)
	}
}
