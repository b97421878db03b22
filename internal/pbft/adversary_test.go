package pbft

import (
	"bytes"
	"slices"
	"testing"

	"rubin/internal/msgnet"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// The Byzantine behaviours the tests give a replica, each an Outbox
// installed with SetOutbox. One that rewrites a message re-seals it under
// the replica's keys with a sealer of its own: the env it is handed is the
// replica's scratch, which a broadcast hands the next recipient too.

// delayed postpones every message by d: a slow replica, not a crashed one.
func delayed(d sim.Time) Outbox {
	return func(_ *msgnet.Peer, env []byte) ([]byte, sim.Time) { return env, d }
}

// muted drops r's messages of the given types to other replicas.
func muted(r *Replica, types ...MsgType) Outbox {
	return func(to *msgnet.Peer, env []byte) ([]byte, sim.Time) {
		if payload := r.sealed(to, env); len(payload) > 0 && slices.Contains(types, MsgType(payload[0])) {
			return nil, 0
		}
		return env, 0
	}
}

// withheld drops r's messages of the given type to the replicas in ids.
func withheld(r *Replica, t MsgType, ids ...int) Outbox {
	return func(to *msgnet.Peer, env []byte) ([]byte, sim.Time) {
		if payload := r.sealed(to, env); len(payload) > 0 && MsgType(payload[0]) == t && slices.Contains(ids, slices.Index(r.peers, to)) {
			return nil, 0
		}
		return env, 0
	}
}

// equivocating makes leader r send the odd-numbered backups a pre-prepare
// that names its first request by a corrupted digest, under a batch digest
// to match (an empty batch: a corrupted batch digest). No backup's own copy
// matches it, so no quorum prepares and the progress timer replaces r.
func equivocating(r *Replica) Outbox {
	sealer := &Replica{id: r.id, keyring: r.keyring}
	return func(to *msgnet.Peer, env []byte) ([]byte, sim.Time) {
		var m decoded
		if slices.Index(r.peers, to)%2 != 1 || m.decode(r.sealed(to, env)) != nil || m.typ != MsgPrePrepare {
			return env, 0
		}
		pp := m.proposal // its refs are its own: decodeRefs copies
		if len(pp.Refs) > 0 {
			pp.Refs[0].Digest[0] ^= 0xFF
			pp.Digest = sealer.batches.digest(pp.Refs)
		} else {
			pp.Digest[0] ^= 0xFF
		}
		out, _, _ := sealer.seal(pp)
		return out, 0
	}
}

// corruptMACs invalidates the authenticator of every message r sends to
// another replica.
func corruptMACs(r *Replica) Outbox {
	return func(to *msgnet.Peer, env []byte) ([]byte, sim.Time) {
		if r.sealed(to, env) == nil {
			return env, 0
		}
		return flipMACs(env), 0
	}
}

// flipMACs returns a copy of a sealed envelope with the first byte of
// every MAC flipped.
func flipMACs(env []byte) []byte {
	out := bytes.Clone(env)
	openEnvelope(out, func(_ int, mac []byte) {
		if len(mac) > 0 {
			mac[0] ^= 0xFF
		}
	})
	return out
}

// corruptStateParts flips the last byte of every partition r serves — a
// Byzantine responder feeding junk into a state transfer, caught by the
// fetcher's per-partition digest check on arrival.
func corruptStateParts(r *Replica) Outbox {
	sealer := &Replica{id: r.id, keyring: r.keyring}
	return func(to *msgnet.Peer, env []byte) ([]byte, sim.Time) {
		var m decoded
		if m.decode(r.sealed(to, env)) != nil || m.typ != MsgStatePart || len(m.part.Data) == 0 {
			return env, 0
		}
		m.part.Data = bytes.Clone(m.part.Data)
		m.part.Data[len(m.part.Data)-1] ^= 0xFF
		out, _, _ := sealer.seal(m.part)
		return out, 0
	}
}

// sealed returns the payload of env when r sends it to another replica,
// and nil for a client reply, which travels unsealed.
func (r *Replica) sealed(to *msgnet.Peer, env []byte) []byte {
	if !slices.Contains(r.peers, to) {
		return nil
	}
	_, payload, _ := openEnvelope(env, func(int, []byte) {})
	return payload
}

// TestDelayedSendOfAStoppedReplicaTransmitsNothing: a send the outbox
// delays fires long after the replica decided to send it. A replica that
// Stop()s in between has crashed, and a crashed process sends nothing —
// while the same broadcast from a replica that stays up reaches every
// other replica.
func TestDelayedSendOfAStoppedReplicaTransmitsNothing(t *testing.T) {
	for _, stop := range []bool{false, true} {
		c := newTestCluster(t, transport.KindTCP, DefaultConfig())
		arrived := 0
		for i, rep := range c.Replicas {
			for _, p := range c.inboundPeer[i] {
				p.OnMessage(func(_ msgnet.Class, raw []byte) {
					if env, err := DecodeEnvelope(raw); err == nil && env.Sender == 1 {
						arrived++
					}
					rep.handleEnvelope(raw)
				})
			}
		}
		r := c.Replicas[1]
		r.SetOutbox(delayed(sim.Millisecond))
		c.Loop.Post(func() {
			r.broadcast(Checkpoint{Seq: r.cfg.CheckpointEvery, Replica: 1})
			if stop {
				c.Loop.After(sim.Millisecond/2, r.Stop)
			}
		})
		c.Loop.Run()
		if want := map[bool]int{false: 3, true: 0}[stop]; arrived != want {
			t.Errorf("stopped=%v: %d messages from replica 1 arrived, want %d", stop, arrived, want)
		}
	}
}
