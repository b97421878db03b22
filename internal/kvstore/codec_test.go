package kvstore

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sort"
	"testing"
)

// layout rebuilds a valid encoding field by field, remembering where
// every length and count field sits, so the table below can aim at them.
type layout struct {
	buf    []byte
	fields []int
}

func (l *layout) raw(b ...byte) { l.buf = append(l.buf, b...) }

func (l *layout) u32(v int) {
	l.fields = append(l.fields, len(l.buf))
	l.buf = binary.BigEndian.AppendUint32(l.buf, uint32(v))
}

func (l *layout) str(s string) {
	l.u32(len(s))
	l.raw([]byte(s)...)
}

func (l *layout) subs(subs []TxnSub) {
	l.u32(len(subs))
	for _, s := range subs {
		l.raw(byte(s.Code))
		l.str(s.Key)
		l.str(s.Value)
	}
}

func (l *layout) bucket(m bucket) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	l.u32(len(keys))
	for _, k := range keys {
		l.str(k)
		l.str(string(*m[k]))
	}
}

func (l *layout) prepared(s *Store) {
	ids := s.Prepared()
	l.u32(len(ids))
	for _, id := range ids {
		l.str(id)
		l.subs(s.prepared[id].subs)
	}
}

// TestDecodersRejectShortHostileAndTrailingInput drives every decoder of
// the package through the three ways adversarial bytes differ from a valid
// encoding: cut short (every proper prefix), a hostile 0xFFFFFFFF in each
// length or count field, and one byte too many. Each must be an error —
// no panic, no allocation sized by the forged field.
func TestDecodersRejectShortHostileAndTrailingInput(t *testing.T) {
	subs := []TxnSub{{OpPut, "a", "1"}, {OpGet, "bb", ""}}
	s := New()
	for _, k := range []string{"alpha", "beta", "gamma", "delta", "epsilon"} {
		s.Execute(EncodeOp(OpPut, k, "v-"+k))
	}
	s.Execute(EncodePrepare("t1", []TxnSub{{OpPut, "locked", "x"}, {OpGet, "alpha", ""}}))
	s.Execute(EncodePrepare("t2", []TxnSub{{OpPut, "other", "y"}}))
	full := bucketOf("alpha")
	parts := make([][]byte, MerkleBuckets)
	for i := range parts {
		parts[i] = s.MarshalPartition(i)
	}

	var op, txnSubs, txnResult, partition, state, header layout
	op.raw(byte(OpPut))
	op.str("key")
	op.str("value")
	txnSubs.subs(subs)
	txnResult.raw(txnResultMarker)
	txnResult.str(TxnCommitted)
	txnResult.u32(2)
	txnResult.str("OK")
	txnResult.str("NOTFOUND")
	partition.bucket(s.buckets[full])
	state.raw(binary.BigEndian.AppendUint64(nil, s.Applied())...)
	state.u32(MerkleBuckets)
	for i := range s.buckets {
		state.bucket(s.buckets[i])
	}
	state.prepared(s)
	header.raw(binary.BigEndian.AppendUint64(nil, s.Applied())...)
	header.prepared(s)

	for _, tc := range []struct {
		name   string
		layout layout
		valid  []byte // what the production encoder wrote
		decode func([]byte) error
	}{
		{"DecodeOp", op, EncodeOp(OpPut, "key", "value"), func(b []byte) error {
			_, _, _, err := DecodeOp(b)
			return err
		}},
		{"DecodeTxnSubs", txnSubs, appendSubs(nil, subs), func(b []byte) error {
			_, err := DecodeTxnSubs(b)
			return err
		}},
		{"DecodeTxnResult", txnResult, EncodeTxnResult(TxnCommitted, [][]byte{[]byte("OK"), []byte("NOTFOUND")}), func(b []byte) error {
			_, _, err := DecodeTxnResult(b)
			return err
		}},
		{"ApplyPartition", partition, parts[full], func(b []byte) error { return New().ApplyPartition(full, b) }},
		{"UnmarshalState", state, s.MarshalState(), func(b []byte) error { return New().UnmarshalState(b) }},
		{"ApplyTransfer header", header, s.MarshalHeader(), func(b []byte) error { return New().ApplyTransfer(b, parts) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			valid := tc.layout.buf
			if !bytes.Equal(valid, tc.valid) {
				t.Fatalf("the test's layout is not the encoder's:\n%x\nvs\n%x", valid, tc.valid)
			}
			if err := tc.decode(valid); err != nil {
				t.Fatalf("valid encoding rejected: %v", err)
			}
			for n := 0; n < len(valid); n++ {
				if tc.decode(valid[:n:n]) == nil {
					t.Fatalf("prefix of %d of %d bytes accepted", n, len(valid))
				}
			}
			if tc.decode(append(bytes.Clone(valid), 0)) == nil {
				t.Error("one trailing byte accepted")
			}
			for _, at := range tc.layout.fields {
				hostile := bytes.Clone(valid)
				binary.BigEndian.PutUint32(hostile[at:], 0xFFFFFFFF)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				err := tc.decode(hostile)
				runtime.ReadMemStats(&after)
				if err == nil {
					t.Errorf("0xFFFFFFFF in the field at byte %d accepted", at)
				}
				// A decoder trusting the field would ask for 4 GiB (or
				// 2^32 map slots); the capped hints stay under a few MiB.
				if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
					t.Errorf("0xFFFFFFFF in the field at byte %d allocated %d bytes", at, grew)
				}
			}
		})
	}
}

// FuzzDecodeTxnSubs asserts the transaction payload codec — parsed by
// every replica from bytes an unauthenticated client chose — is total and
// canonical: whatever DecodeTxnSubs accepts re-encodes byte-identically.
func FuzzDecodeTxnSubs(f *testing.F) {
	f.Add(appendSubs(nil, []TxnSub{{OpPut, "a", "1"}, {OpGet, "bb", ""}}))
	f.Add(appendSubs(nil, nil))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 2})
	f.Add([]byte{0, 0, 0, 1, 1, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		subs, err := DecodeTxnSubs(data)
		if err != nil {
			return
		}
		if re := appendSubs(nil, subs); !bytes.Equal(re, data) {
			t.Fatalf("non-canonical accept: %x re-encodes to %x", data, re)
		}
	})
}

// FuzzDecodeTxnResult asserts the same of the transaction reply codec.
func FuzzDecodeTxnResult(f *testing.F) {
	f.Add(EncodeTxnResult(TxnCommitted, [][]byte{[]byte("OK"), []byte("NOTFOUND")}))
	f.Add(EncodeTxnResult(TxnAborted, nil))
	f.Add([]byte{})
	f.Add([]byte("LOCKED"))
	f.Add([]byte{txnResultMarker, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		status, results, err := DecodeTxnResult(data)
		if err != nil {
			return
		}
		if re := EncodeTxnResult(status, results); !bytes.Equal(re, data) {
			t.Fatalf("non-canonical accept: %x re-encodes to %x", data, re)
		}
	})
}
