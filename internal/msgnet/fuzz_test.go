package msgnet

import (
	"bytes"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
)

// FuzzDecodeFrame asserts the frame parser is total: arbitrary bytes
// either decode or error, never panic, and an accepted frame's fields — a
// chunk's header, a bundle's members — must round-trip through the
// encoder.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(encodeWhole(ClassControl, []byte("hello")))
	var d, prev auth.Digest
	d[0], prev[1] = 1, 2
	f.Add(encodeChunk(ClassBulk, 7, 1, 3, d, prev, []byte("chunk")))
	f.Add([]byte{})
	f.Add([]byte{9, 9, 9})
	f.Add(encodeBundle(ClassControl, []byte("prepare"), []byte("commit"), []byte{0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := decodeFrame(data)
		if err != nil {
			return
		}
		switch fr.kind {
		case frameWhole:
			if !bytes.Equal(encodeWhole(fr.class, fr.payload), data) {
				t.Fatalf("whole frame %x does not round-trip", data)
			}
		case frameChunk:
			re := encodeChunk(fr.class, fr.stream, fr.index, fr.count, fr.digest, fr.prev, fr.payload)
			if !bytes.Equal(re, data) {
				t.Fatalf("chunk frame %x round-trips to %x", data, re)
			}
		case frameBundle:
			var members [][]byte
			for rest := fr.payload; len(rest) > 0; {
				var m []byte
				m, rest = nextMember(rest)
				if len(m) == 0 {
					t.Fatalf("bundle %x accepted with an empty member", data)
				}
				members = append(members, m)
			}
			if len(members) < 2 {
				t.Fatalf("bundle %x accepted with %d members", data, len(members))
			}
			if re := encodeBundle(fr.class, members...); !bytes.Equal(re, data) {
				t.Fatalf("bundle frame %x round-trips to %x", data, re)
			}
		default:
			t.Fatalf("decodeFrame accepted unknown kind %d", fr.kind)
		}
	})
}

// fuzzPeer builds a receive-side peer over a real fabric node without a
// transport connection — dispatch is fed directly, exactly what a
// corrupted wire would do.
func fuzzPeer() *Peer {
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	node := nw.AddNode("rx")
	opts := DefaultOptions()
	opts.Transport.MaxMessage = 128 // small chunks so short inputs span several
	mesh := newMesh(node, nil, opts)
	return &Peer{mesh: mesh, streams: make(map[uint64]*inStream)}
}

// chunkFrames encodes msg as the sender side would: digest-chained chunk
// frames of the peer's chunk payload size.
func chunkFrames(p *Peer, class Class, stream uint64, msg []byte) [][]byte {
	chunk := p.mesh.opts.chunkPayload()
	count := uint32((len(msg) + chunk - 1) / chunk)
	var frames [][]byte
	var prev auth.Digest
	for i := uint32(0); i < count; i++ {
		start := int(i) * chunk
		end := start + chunk
		if end > len(msg) {
			end = len(msg)
		}
		payload := msg[start:end]
		digest := auth.Hash(payload)
		frames = append(frames, encodeChunk(class, stream, i, count, digest, prev, payload))
		prev = digest
	}
	return frames
}

// FuzzChunkReassembly corrupts a single bit of one frame of a chunked
// message and asserts the receiver never panics, never delivers a
// mis-reassembled message, and surfaces the corruption as a receive
// error. An uncorrupted control run must deliver the message
// byte-identically.
func FuzzChunkReassembly(f *testing.F) {
	f.Add([]byte("seed message that spans several chunk frames because it is long enough"), uint32(5), uint8(3))
	f.Add([]byte{}, uint32(0), uint8(0))
	f.Add(bytes.Repeat([]byte{0xAB}, 300), uint32(97), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, pos uint32, bit uint8) {
		p := fuzzPeer()
		// Ensure the message spans at least two chunks so every fuzzed
		// input exercises reassembly, not the whole-frame fast path.
		msg := append([]byte("padding-to-span-at-least-two-chunk-frames-"), data...)
		for len(msg) <= p.mesh.opts.chunkPayload() {
			msg = append(msg, byte(len(msg)))
		}
		var delivered [][]byte
		p.OnMessage(func(_ Class, m []byte) { delivered = append(delivered, m) })

		// Control run: clean frames must reassemble byte-identically.
		for _, fr := range chunkFrames(p, ClassControl, 1, msg) {
			p.dispatch(fr)
		}
		if len(delivered) != 1 || !bytes.Equal(delivered[0], msg) {
			t.Fatalf("clean reassembly failed: delivered %d messages", len(delivered))
		}
		if *p.mesh.recvErrs != 0 {
			t.Fatalf("clean reassembly surfaced %d errors", *p.mesh.recvErrs)
		}

		// Corrupted run on a fresh stream: flip one bit of one frame.
		delivered = nil
		frames := chunkFrames(p, ClassControl, 2, msg)
		var total int
		for _, fr := range frames {
			total += len(fr)
		}
		target := int(pos) % total
		for i := range frames {
			if target < len(frames[i]) {
				frames[i][target] ^= 1 << (bit % 8)
				break
			}
			target -= len(frames[i])
		}
		for _, fr := range frames {
			p.dispatch(fr)
		}
		for _, m := range delivered {
			if !bytes.Equal(m, msg) {
				t.Fatalf("mis-reassembly: corrupted stream delivered a different %d-byte message", len(m))
			}
		}
		if len(delivered) == 0 && *p.mesh.recvErrs == 0 {
			t.Fatal("corrupted stream vanished without a surfaced receive error")
		}
	})
}
