// Package auth implements the message-integrity primitives Reptor-style
// BFT protocols rely on: pairwise-keyed HMAC-SHA256 authenticators (one
// MAC per receiving replica) and message digests. Real cryptography runs
// (so tampering is actually detected in tests); the modeled CPU cost is
// charged separately by the protocol layer via Cost/DigestCost.
package auth

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"hash"

	"rubin/internal/model"
	"rubin/internal/sim"
)

// KeySize is the symmetric key length in bytes.
const KeySize = 32

// MACSize is the per-receiver MAC length in bytes.
const MACSize = 32

// DigestSize is the message digest length in bytes.
const DigestSize = sha256.Size

// Key is a pairwise symmetric key.
type Key [KeySize]byte

// Digest is a SHA-256 message digest.
type Digest [DigestSize]byte

// Keyring holds one replica's pairwise keys with every other replica.
// Keyring[i][j] == Keyring[j][i] across the matching ring instances.
//
// A keyring is single-goroutine state (everything in this repository runs
// on one sim loop): the HMAC states and sum scratches below make MAC and
// Verify allocation-free steady-state at the price of not being safe for
// concurrent use.
type Keyring struct {
	self int
	keys []Key

	// macs caches one HMAC-SHA256 state per peer, created on first use
	// and Reset-reused afterwards. sum backs MAC's return value; vsum
	// backs the expected-MAC computation inside Verify, so verifying
	// does not clobber a caller-held MAC result.
	macs []hash.Hash
	sum  [MACSize]byte
	vsum [MACSize]byte
}

// GenerateKeyrings deterministically derives the full pairwise key matrix
// for n replicas from a seed, returning one keyring per replica. The
// derivation is HMAC-based so unit tests get stable keys without an
// out-of-band key exchange.
func GenerateKeyrings(n int, seed uint64) []*Keyring {
	if n < 1 {
		panic("auth: need at least one replica")
	}
	rings := make([]*Keyring, n)
	for i := range rings {
		rings[i] = &Keyring{self: i, keys: make([]Key, n), macs: make([]hash.Hash, n)}
	}
	var seedBytes [8]byte
	binary.BigEndian.PutUint64(seedBytes[:], seed)
	// Every pair derives under the same seed key, so one Reset-reused
	// HMAC state serves the whole matrix.
	mac := hmac.New(sha256.New, seedBytes[:])
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			mac.Reset()
			var pair [16]byte
			binary.BigEndian.PutUint64(pair[:8], uint64(i))
			binary.BigEndian.PutUint64(pair[8:], uint64(j))
			mac.Write(pair[:])
			var k Key
			mac.Sum(k[:0])
			rings[i].keys[j] = k
			rings[j].keys[i] = k
		}
	}
	return rings
}

// Self returns the replica index this keyring belongs to.
func (kr *Keyring) Self() int { return kr.self }

// N returns the number of replicas covered.
func (kr *Keyring) N() int { return len(kr.keys) }

// state returns peer's Reset HMAC state, creating it on first use.
func (kr *Keyring) state(peer int) hash.Hash {
	m := kr.macs[peer]
	if m == nil {
		m = hmac.New(sha256.New, kr.keys[peer][:])
		kr.macs[peer] = m
		return m
	}
	m.Reset()
	return m
}

// MAC computes the HMAC of msg under the pairwise key with peer.
//
// The returned slice aliases a per-keyring scratch buffer: it is valid
// only until the next MAC or Authenticate call on this keyring. Callers
// that retain the value past that point must copy it (Authenticate
// already returns stable copies).
func (kr *Keyring) MAC(peer int, msg []byte) []byte { return kr.AppendMAC(kr.sum[:0], peer, msg) }

// AppendMAC appends the HMAC of msg under the pairwise key with peer to
// dst — how a sender lays MACs straight into an outgoing buffer.
func (kr *Keyring) AppendMAC(dst []byte, peer int, msg []byte) []byte {
	m := kr.state(peer)
	m.Write(msg)
	return m.Sum(dst)
}

// Verify checks a MAC received from peer. It uses its own scratch, so a
// slice previously returned by MAC stays intact across Verify calls.
func (kr *Keyring) Verify(peer int, msg, mac []byte) bool {
	if peer < 0 || peer >= len(kr.keys) || peer == kr.self {
		return false
	}
	m := kr.state(peer)
	m.Write(msg)
	return hmac.Equal(m.Sum(kr.vsum[:0]), mac)
}

// Authenticator is a vector of MACs, one per replica (the sender's own
// entry is empty). BFT broadcasts attach an authenticator so every
// receiver can verify with its pairwise key.
type Authenticator [][]byte

// Authenticate builds the authenticator for msg toward all n replicas.
// The entries do not alias the MAC scratch — they share one fresh backing
// array sized for the whole vector (two allocations total), so a returned
// authenticator stays valid indefinitely.
func (kr *Keyring) Authenticate(msg []byte) Authenticator {
	n := len(kr.keys)
	a := make(Authenticator, n)
	buf := make([]byte, 0, (n-1)*MACSize)
	for peer := 0; peer < n; peer++ {
		if peer == kr.self {
			continue
		}
		start := len(buf)
		buf = kr.AppendMAC(buf, peer, msg)
		a[peer] = buf[start:len(buf):len(buf)]
	}
	return a
}

// Hash computes the SHA-256 digest of msg.
func Hash(msg []byte) Digest { return sha256.Sum256(msg) }

// Cost returns the modeled CPU time of one HMAC over size bytes.
func Cost(p model.CryptoParams, size int) sim.Time {
	return p.HMACBase + model.KB(p.HMACPerKB, size)
}

// AuthenticatorCost returns the modeled CPU time to build an authenticator
// toward n-1 peers.
func AuthenticatorCost(p model.CryptoParams, n, size int) sim.Time {
	if n < 2 {
		return 0
	}
	return Cost(p, size) * sim.Time(n-1)
}

// DigestCost returns the modeled CPU time of one digest over size bytes.
func DigestCost(p model.CryptoParams, size int) sim.Time {
	return p.DigestBase + model.KB(p.DigestPerKB, size)
}
