package kvstore

import (
	"encoding/binary"
	"fmt"
)

// The package's field codec: every wire and state format here is built
// from bytes, big-endian counts and length-prefixed strings, written by
// the two append helpers and read by dec — the one place that decides what
// a short buffer, a hostile length or a trailing byte does.

// appendStr appends one length-prefixed string (or byte string).
func appendStr[S string | []byte](buf []byte, s S) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// appendSubs appends a sub-operation list: count, then per sub the code
// byte and length-prefixed key and value.
func appendSubs(buf []byte, subs []TxnSub) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(subs)))
	for _, s := range subs {
		buf = appendStr(appendStr(append(buf, byte(s.Code)), s.Key), s.Value)
	}
	return buf
}

// dec is a cursor over input it never appends to, with a sticky error:
// after the first short read every getter returns zero values, so callers
// decode a whole layout and check once. Loops over a decoded count are
// conditioned on d.err == nil, so a forged count cannot spin.
type dec struct {
	buf  []byte
	what string // the thing being decoded, for error texts
	err  error
}

// take pops n bytes, comparing lengths in uint64 so hostile 32-bit length
// fields cannot overflow int arithmetic on 32-bit platforms.
func (d *dec) take(n uint64) []byte {
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.buf)) {
		d.err = fmt.Errorf("kvstore: truncated %s (%d bytes short)", d.what, n-uint64(len(d.buf)))
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// uint pops an n-byte big-endian integer (0 after an error).
func (d *dec) uint(n uint64) (v uint64) {
	for _, b := range d.take(n) {
		v = v<<8 | uint64(b)
	}
	return v
}

func (d *dec) u8() byte    { return byte(d.uint(1)) }
func (d *dec) u32() uint32 { return uint32(d.uint(4)) }
func (d *dec) u64() uint64 { return d.uint(8) }

// field pops one length-prefixed byte string, aliasing the input.
func (d *dec) field() []byte { return d.take(uint64(d.u32())) }

// str pops one length-prefixed string.
func (d *dec) str() string { return string(d.field()) }

// subs pops a sub-operation list (the layout of appendSubs). The capacity
// hint is capped: the count is the sender's claim, not a fact.
func (d *dec) subs() []TxnSub {
	n := d.u32()
	subs := make([]TxnSub, 0, min(n, 64))
	for ; n > 0 && d.err == nil; n-- {
		subs = append(subs, TxnSub{Code: OpCode(d.u8()), Key: d.str(), Value: d.str()})
	}
	return subs
}

// end reports the first short read, or bytes left over after a complete
// decode.
func (d *dec) end() error {
	if d.err == nil && len(d.buf) != 0 {
		d.err = fmt.Errorf("kvstore: %d trailing bytes after %s", len(d.buf), d.what)
	}
	return d.err
}
