package msgnet

import "rubin/internal/auth"

// encodeWhole and encodeChunk build single frames for tests that feed a
// peer hand-made wire bytes; the send path lays frames out in place in its
// send buffer instead (Peer.Send, putChunkHeader).

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
