package kvstore

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func txnResult(t *testing.T, raw []byte) (string, [][]byte) {
	t.Helper()
	status, results, err := DecodeTxnResult(raw)
	if err != nil {
		t.Fatalf("DecodeTxnResult(%q): %v", raw, err)
	}
	return status, results
}

func TestPartitionKeyCoversAllRanges(t *testing.T) {
	const parts = 8
	seen := make(map[int]int)
	for i := 0; i < 1000; i++ {
		p := PartitionKey(fmt.Sprintf("k%06d", i), parts)
		if p < 0 || p >= parts {
			t.Fatalf("partition %d out of range", p)
		}
		seen[p]++
	}
	for p := 0; p < parts; p++ {
		if seen[p] == 0 {
			t.Fatalf("partition %d empty over 1000 keys", p)
		}
	}
	if PartitionKey("anything", 1) != 0 {
		t.Fatal("single partition must own everything")
	}
}

func TestOpKeys(t *testing.T) {
	subs := []TxnSub{{OpPut, "b", "1"}, {OpGet, "a", ""}, {OpPut, "b", "2"}}
	cases := []struct {
		op   []byte
		want []string
	}{
		{EncodeOp(OpPut, "k1", "v"), []string{"k1"}},
		{EncodeOp(OpGet, "k2", ""), []string{"k2"}},
		{EncodeOp(OpDelete, "k3", ""), []string{"k3"}},
		{EncodeOp(OpScan, "k0", "16"), []string{"k0"}},
		{EncodeScanPart("k0", 16, 1, 4), []string{"k0"}},
		{EncodeTxn("t1", subs), []string{"b", "a"}},
		{EncodePrepare("t1", subs), []string{"b", "a"}},
	}
	for _, c := range cases {
		got, err := OpKeys(c.op)
		if err != nil {
			t.Fatalf("OpKeys: %v", err)
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Fatalf("OpKeys = %v, want %v", got, c.want)
		}
	}
	for _, op := range [][]byte{EncodeCommit("t1"), EncodeAbort("t1"), {1, 2}} {
		if _, err := OpKeys(op); err == nil {
			t.Fatalf("OpKeys(%x) should fail", op)
		}
	}
}

func TestOnePhaseTxnAtomic(t *testing.T) {
	s := New()
	s.Execute(EncodeOp(OpPut, "a", "old"))
	res := s.Execute(EncodeTxn("t1", []TxnSub{
		{OpGet, "a", ""},
		{OpPut, "a", "new"},
		{OpGet, "a", ""}, // reads its own write
		{OpPut, "b", "vb"},
	}))
	status, results := txnResult(t, res)
	if status != TxnCommitted {
		t.Fatalf("status %q", status)
	}
	want := []string{"old", "OK", "new", "OK"}
	for i, w := range want {
		if string(results[i]) != w {
			t.Fatalf("result[%d] = %q, want %q", i, results[i], w)
		}
	}
	if v, _ := s.Get("b"); v != "vb" {
		t.Fatalf("b = %q", v)
	}
}

func TestPrepareCommitAppliesStagedWrites(t *testing.T) {
	s := New()
	s.Execute(EncodeOp(OpPut, "a", "old"))
	res := s.Execute(EncodePrepare("t1", []TxnSub{{OpGet, "a", ""}, {OpPut, "a", "new"}}))
	status, results := txnResult(t, res)
	if status != TxnPrepared || string(results[0]) != "old" {
		t.Fatalf("prepare: %q %q", status, results)
	}
	// Staged, not applied: reads still see the old value, writes are locked.
	if v, _ := s.Get("a"); v != "old" {
		t.Fatalf("pre-commit a = %q", v)
	}
	if got := string(s.Execute(EncodeOp(OpPut, "a", "clobber"))); got != Locked {
		t.Fatalf("conflicting put got %q, want %q", got, Locked)
	}
	if got := string(s.Execute(EncodeOp(OpDelete, "a", ""))); got != Locked {
		t.Fatalf("conflicting delete got %q, want %q", got, Locked)
	}
	// Reads pass through locks (staged writes are invisible pre-commit).
	if got := string(s.Execute(EncodeOp(OpGet, "a", ""))); got != "old" {
		t.Fatalf("read under lock got %q", got)
	}
	status, _ = txnResult(t, s.Execute(EncodeCommit("t1")))
	if status != TxnCommitted {
		t.Fatalf("commit status %q", status)
	}
	if v, _ := s.Get("a"); v != "new" {
		t.Fatalf("post-commit a = %q", v)
	}
	if s.LockHolder("a") != "" || len(s.Prepared()) != 0 {
		t.Fatal("commit left locks or staging behind")
	}
}

func TestPrepareAbortDiscardsStagedWrites(t *testing.T) {
	s := New()
	txnResult(t, s.Execute(EncodePrepare("t1", []TxnSub{{OpPut, "a", "v"}})))
	txnResult(t, s.Execute(EncodeAbort("t1")))
	if _, ok := s.Get("a"); ok {
		t.Fatal("aborted write applied")
	}
	if s.LockHolder("a") != "" {
		t.Fatal("abort left the lock")
	}
	// Aborting a never-prepared txn is a harmless no-op.
	status, _ := txnResult(t, s.Execute(EncodeAbort("t9")))
	if status != TxnAborted {
		t.Fatalf("status %q", status)
	}
	// Committing an unknown txn is an error.
	if got := string(s.Execute(EncodeCommit("t9"))); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("commit of unknown txn got %q", got)
	}
}

func TestPrepareConflictVotesAbort(t *testing.T) {
	s := New()
	txnResult(t, s.Execute(EncodePrepare("t1", []TxnSub{{OpPut, "a", "1"}})))
	status, _ := txnResult(t, s.Execute(EncodePrepare("t2", []TxnSub{{OpPut, "a", "2"}})))
	if status != TxnAborted {
		t.Fatalf("conflicting prepare voted %q, want %q", status, TxnAborted)
	}
	// The loser staged nothing: committing t1 must win cleanly.
	txnResult(t, s.Execute(EncodeCommit("t1")))
	if v, _ := s.Get("a"); v != "1" {
		t.Fatalf("a = %q", v)
	}
	// One-phase txns see the same conflict as single-key writes.
	txnResult(t, s.Execute(EncodePrepare("t3", []TxnSub{{OpPut, "b", "3"}})))
	if got := string(s.Execute(EncodeTxn("t4", []TxnSub{{OpPut, "b", "4"}}))); got != Locked {
		t.Fatalf("one-phase txn under lock got %q, want %q", got, Locked)
	}
}

func TestPrepareLocksReadKeys(t *testing.T) {
	// Strict two-phase locking: a prepared reader holds its snapshot
	// stable — writers (single-key or transactional) conflict until the
	// decision releases the locks.
	s := New()
	s.Execute(EncodeOp(OpPut, "a", "v0"))
	status, results := txnResult(t, s.Execute(EncodePrepare("r1", []TxnSub{{OpGet, "a", ""}})))
	if status != TxnPrepared || string(results[0]) != "v0" {
		t.Fatalf("reader prepare: %q %q", status, results)
	}
	if s.LockHolder("a") != "r1" {
		t.Fatal("read sub did not lock its key")
	}
	if got := string(s.Execute(EncodeOp(OpPut, "a", "clobber"))); got != Locked {
		t.Fatalf("write under read lock got %q", got)
	}
	status, _ = txnResult(t, s.Execute(EncodePrepare("w1", []TxnSub{{OpPut, "a", "v1"}})))
	if status != TxnAborted {
		t.Fatalf("writer prepare under read lock voted %q", status)
	}
	// Commit of a pure reader applies nothing and releases the lock.
	txnResult(t, s.Execute(EncodeCommit("r1")))
	if v, _ := s.Get("a"); v != "v0" || s.LockHolder("a") != "" {
		t.Fatalf("reader commit mutated state: a=%q holder=%q", v, s.LockHolder("a"))
	}
}

func TestMarshalStateCarriesPreparedTxns(t *testing.T) {
	s := New()
	s.Execute(EncodeOp(OpPut, "a", "old"))
	txnResult(t, s.Execute(EncodePrepare("t1", []TxnSub{{OpPut, "a", "new"}, {OpGet, "q", ""}, {OpPut, "z", "zz"}})))

	s2 := New()
	if err := s2.UnmarshalState(s.MarshalState()); err != nil {
		t.Fatal(err)
	}
	if s2.Snapshot() != s.Snapshot() {
		t.Fatal("digest diverged across marshal round trip")
	}
	if s2.LockHolder("a") != "t1" || s2.LockHolder("z") != "t1" || s2.LockHolder("q") != "t1" {
		t.Fatal("locks (including read locks) not rebuilt from staged subs")
	}
	// The restored replica can finish the in-doubt transaction.
	status, _ := txnResult(t, s2.Execute(EncodeCommit("t1")))
	if status != TxnCommitted {
		t.Fatalf("status %q", status)
	}
	if v, _ := s2.Get("a"); v != "new" {
		t.Fatalf("a = %q", v)
	}
}

func TestScanPartPartitionsAndMerges(t *testing.T) {
	const parts = 4
	s := New()
	var want []string
	for i := 0; i < 40; i++ {
		k := fmt.Sprintf("k%06d", i)
		s.Execute(EncodeOp(OpPut, k, fmt.Sprintf("v%d", i)))
		want = append(want, k+"="+fmt.Sprintf("v%d", i))
	}
	s.Execute(EncodeOp(OpPut, "other", "x"))

	var partials []string
	total := 0
	for _, op := range SplitScan("k", 0, parts) {
		res := string(s.Execute(op))
		if res != "" {
			total += len(strings.Split(res, "\n"))
		}
		partials = append(partials, res)
	}
	if total != 40 {
		t.Fatalf("partitions returned %d pairs, want 40", total)
	}
	merged := MergeScans(partials, 0)
	if merged != strings.Join(want, "\n") {
		t.Fatalf("merged scan mismatch:\n%s", merged)
	}
	// The merge of partition scans equals the whole-store scan, capped.
	if got := MergeScans(partials, 7); got != scan(s, "k", 7) {
		t.Fatalf("capped merge %q != direct scan %q", got, scan(s, "k", 7))
	}
	// Malformed partition specs are deterministic errors.
	if got := string(s.Execute(EncodeOp(OpScanPart, "k", "nonsense"))); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("bad spec got %q", got)
	}
	if got := string(s.Execute(EncodeOp(OpScanPart, "k", "0 9 4"))); !strings.HasPrefix(got, "ERR") {
		t.Fatalf("out-of-range part got %q", got)
	}
}

func TestTxnCodecRoundTrips(t *testing.T) {
	subs := []TxnSub{{OpPut, "k1", "v1"}, {OpGet, "k2", ""}}
	dec, err := DecodeTxnSubs([]byte(""))
	if err == nil {
		t.Fatalf("empty subs accepted: %v", dec)
	}
	_, k, v, err := DecodeOp(EncodePrepare("t1", subs))
	if err != nil || k != "t1" {
		t.Fatalf("prepare decode: %q %v", k, err)
	}
	got, err := DecodeTxnSubs([]byte(v))
	if err != nil || len(got) != 2 || got[0] != subs[0] || got[1] != subs[1] {
		t.Fatalf("subs round trip: %v %v", got, err)
	}
	res := EncodeTxnResult(TxnPrepared, [][]byte{[]byte("old"), nil})
	status, results, err := DecodeTxnResult(res)
	if err != nil || status != TxnPrepared || len(results) != 2 || !bytes.Equal(results[0], []byte("old")) {
		t.Fatalf("result round trip: %q %v %v", status, results, err)
	}
	if _, _, err := DecodeTxnResult([]byte("OK")); err == nil {
		t.Fatal("plain reply decoded as txn result")
	}
	// Trailing bytes are rejected (canonical decode).
	if _, err := DecodeTxnSubs(append(appendSubs(nil, subs), 0)); err == nil {
		t.Fatal("trailing sub bytes accepted")
	}
	if _, _, err := DecodeTxnResult(append(res, 0)); err == nil {
		t.Fatal("trailing result bytes accepted")
	}
}
