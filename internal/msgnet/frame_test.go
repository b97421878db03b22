package msgnet

import "rubin/internal/auth"

// encodeWhole, encodeChunk and encodeBundle build single frames for tests
// that feed a peer hand-made wire bytes; the send path lays frames out in
// place in its send buffer instead (Peer.Send, putChunkHeader,
// Peer.bundle).

func encodeWhole(class Class, msg []byte) []byte {
	out := make([]byte, wholeHeaderLen+len(msg))
	out[0] = frameWhole
	out[1] = byte(class)
	copy(out[wholeHeaderLen:], msg)
	return out
}

func encodeChunk(class Class, stream uint64, index, count uint32, digest, prev auth.Digest, payload []byte) []byte {
	out := make([]byte, chunkHeaderLen+len(payload))
	putChunkHeader(out, class, stream, index, count, digest, prev)
	copy(out[chunkHeaderLen:], payload)
	return out
}

func encodeBundle(class Class, members ...[]byte) []byte {
	size := wholeHeaderLen
	for _, m := range members {
		size += memberHeaderLen + len(m)
	}
	out := make([]byte, size)
	out[0] = frameBundle
	out[1] = byte(class)
	off := wholeHeaderLen
	for _, m := range members {
		off = putMember(out, off, m)
	}
	return out
}
