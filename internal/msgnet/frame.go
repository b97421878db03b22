package msgnet

import (
	"encoding/binary"
	"fmt"

	"rubin/internal/auth"
)

// Frame kinds on the wire. Every msgnet frame travels as one transport
// message; the first byte discriminates.
const (
	frameWhole byte = 1 // a complete message in one frame
	frameChunk byte = 2 // one fragment of a chunked message
)

// Header sizes. A whole frame is [kind u8][class u8][payload]; a chunk
// frame is [kind u8][class u8][stream u64][index u32][count u32]
// [digest 32][prev 32][payload] — the digest pair forms the chain that
// lets a receiver detect corrupted or mis-sequenced fragments.
const (
	wholeHeaderLen = 2
	chunkHeaderLen = 2 + 8 + 4 + 4 + 2*auth.DigestSize
)

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
	default:
		return frame{}, fmt.Errorf("msgnet: unknown frame kind %d", f.kind)
	}
}
