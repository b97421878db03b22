package msgnet

import (
	"encoding/binary"
	"fmt"

	"rubin/internal/auth"
)

// Frame kinds on the wire. Every msgnet frame travels as one transport
// message; the first byte discriminates.
const (
	frameWhole  byte = 1 // a complete message in one frame
	frameChunk  byte = 2 // one fragment of a chunked message
	frameBundle byte = 3 // two or more complete messages of one class
)

// Header sizes. A whole frame is [kind u8][class u8][payload]; a chunk
// frame is [kind u8][class u8][stream u64][index u32][count u32]
// [digest 32][prev 32][payload] — the digest pair forms the chain that
// lets a receiver detect corrupted or mis-sequenced fragments. A bundle
// frame is [kind u8][class u8]([len u32][payload])*: at least two
// members, none empty, whose lengths use up the frame exactly.
const (
	wholeHeaderLen  = 2
	chunkHeaderLen  = 2 + 8 + 4 + 4 + 2*auth.DigestSize
	memberHeaderLen = 4
)

// bundleMax caps a bundle frame: the pump packs the whole messages queued
// in one class into one transport message while the frame stays within
// it. It is small beside MaxMessage so that large messages keep
// travelling alone.
const bundleMax = 4 << 10

// frame is one decoded msgnet wire frame.
type frame struct {
	kind    byte
	class   Class
	stream  uint64
	index   uint32
	count   uint32
	digest  auth.Digest // digest of this chunk's payload
	prev    auth.Digest // digest of the preceding chunk's payload (zero for index 0)
	payload []byte
}

// putChunkHeader writes a chunk header in place into the first
// chunkHeaderLen bytes of f. The hot path pre-lays chunk frames out in
// the send buffer and fills each header here just before the frame hits
// the substrate, so no per-chunk copy or allocation happens.
func putChunkHeader(f []byte, class Class, stream uint64, index, count uint32, digest, prev auth.Digest) {
	f[0] = frameChunk
	f[1] = byte(class)
	binary.BigEndian.PutUint64(f[2:], stream)
	binary.BigEndian.PutUint32(f[10:], index)
	binary.BigEndian.PutUint32(f[14:], count)
	copy(f[18:], digest[:])
	copy(f[18+auth.DigestSize:], prev[:])
}

// putMember writes one bundle member at f[off:] and returns the offset
// past it.
func putMember(f []byte, off int, msg []byte) int {
	binary.BigEndian.PutUint32(f[off:], uint32(len(msg)))
	return off + memberHeaderLen + copy(f[off+memberHeaderLen:], msg)
}

// nextMember splits the first member off the rest of a bundle payload
// decodeFrame accepted. The member is capacity-limited: appending to it
// cannot reach the members behind it.
func nextMember(b []byte) (member, rest []byte) {
	end := memberHeaderLen + int(binary.BigEndian.Uint32(b))
	return b[memberHeaderLen:end:end], b[end:]
}

func decodeFrame(raw []byte) (frame, error) {
	if len(raw) < wholeHeaderLen {
		return frame{}, fmt.Errorf("msgnet: frame truncated (%d bytes)", len(raw))
	}
	f := frame{kind: raw[0], class: Class(raw[1])}
	switch f.kind {
	case frameWhole:
		f.payload = raw[wholeHeaderLen:]
		return f, nil
	case frameChunk:
		if len(raw) < chunkHeaderLen {
			return frame{}, fmt.Errorf("msgnet: chunk frame truncated (%d bytes)", len(raw))
		}
		f.stream = binary.BigEndian.Uint64(raw[2:])
		f.index = binary.BigEndian.Uint32(raw[10:])
		f.count = binary.BigEndian.Uint32(raw[14:])
		copy(f.digest[:], raw[18:])
		copy(f.prev[:], raw[18+auth.DigestSize:])
		f.payload = raw[chunkHeaderLen:]
		return f, nil
	case frameBundle:
		// The whole layout is checked before anything is delivered, so a
		// bundle is handed up whole or rejected whole.
		f.payload = raw[wholeHeaderLen:]
		members := 0
		for rest := f.payload; len(rest) > 0; members++ {
			if len(rest) < memberHeaderLen {
				return frame{}, fmt.Errorf("msgnet: bundle member header truncated (%d bytes)", len(rest))
			}
			n := uint64(binary.BigEndian.Uint32(rest))
			if n == 0 || n > uint64(len(rest)-memberHeaderLen) {
				return frame{}, fmt.Errorf("msgnet: bundle member of %d bytes in %d", n, len(rest)-memberHeaderLen)
			}
			rest = rest[memberHeaderLen+int(n):]
		}
		if members < 2 {
			return frame{}, fmt.Errorf("msgnet: bundle of %d members", members)
		}
		return f, nil
	default:
		return frame{}, fmt.Errorf("msgnet: unknown frame kind %d", f.kind)
	}
}
