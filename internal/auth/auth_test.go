package auth

import (
	"bytes"
	"testing"
	"testing/quick"

	"rubin/internal/model"
	"rubin/internal/raceflag"
)

// VerifyFrom checks the receiver's entry of an authenticator produced by
// sender: what a receiver that holds the whole vector does. (pbft's receive
// path walks the vector in place and calls Verify on its own entry.)
func (kr *Keyring) VerifyFrom(sender int, msg []byte, a Authenticator) bool {
	return kr.self < len(a) && kr.Verify(sender, msg, a[kr.self])
}

func TestPairwiseKeysAreSymmetricAndDistinct(t *testing.T) {
	rings := GenerateKeyrings(4, 42)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			if rings[i].keys[j] != rings[j].keys[i] {
				t.Fatalf("key(%d,%d) != key(%d,%d)", i, j, j, i)
			}
		}
	}
	if rings[0].keys[1] == rings[0].keys[2] {
		t.Fatal("distinct pairs share a key")
	}
	if rings[0].Self() != 0 || rings[3].Self() != 3 || rings[0].N() != 4 {
		t.Fatal("ring identity wrong")
	}
}

func TestKeyringsDeterministicPerSeed(t *testing.T) {
	a := GenerateKeyrings(3, 7)
	b := GenerateKeyrings(3, 7)
	c := GenerateKeyrings(3, 8)
	if a[0].keys[1] != b[0].keys[1] {
		t.Fatal("same seed must give same keys")
	}
	if a[0].keys[1] == c[0].keys[1] {
		t.Fatal("different seeds must give different keys")
	}
}

func TestMACRoundTrip(t *testing.T) {
	rings := GenerateKeyrings(2, 1)
	msg := []byte("pre-prepare v0 n7")
	mac := rings[0].MAC(1, msg)
	if !rings[1].Verify(0, msg, mac) {
		t.Fatal("valid MAC rejected")
	}
	if rings[1].Verify(0, []byte("tampered"), mac) {
		t.Fatal("tampered message accepted")
	}
	mac[0] ^= 0xFF
	if rings[1].Verify(0, msg, mac) {
		t.Fatal("tampered MAC accepted")
	}
}

func TestVerifyRejectsBadPeerIndices(t *testing.T) {
	rings := GenerateKeyrings(3, 1)
	msg := []byte("m")
	mac := rings[0].MAC(1, msg)
	if rings[1].Verify(-1, msg, mac) || rings[1].Verify(3, msg, mac) || rings[1].Verify(1, msg, mac) {
		t.Fatal("invalid peer index accepted")
	}
}

func TestAuthenticatorVerifiesAtEveryReplica(t *testing.T) {
	const n = 4
	rings := GenerateKeyrings(n, 9)
	msg := []byte("commit v1 n19")
	a := rings[2].Authenticate(msg)
	if len(a) != n {
		t.Fatalf("authenticator has %d entries, want %d", len(a), n)
	}
	if a[2] != nil {
		t.Fatal("sender's own entry should be empty")
	}
	for r := 0; r < n; r++ {
		if r == 2 {
			continue
		}
		if !rings[r].VerifyFrom(2, msg, a) {
			t.Fatalf("replica %d rejected a valid authenticator", r)
		}
	}
	// A faulty replica cannot reuse replica 2's authenticator for a
	// different message.
	for r := 0; r < n; r++ {
		if r == 2 {
			continue
		}
		if rings[r].VerifyFrom(2, []byte("forged"), a) {
			t.Fatalf("replica %d accepted a forged message", r)
		}
	}
}

func TestVerifyFromRejectsWrongSender(t *testing.T) {
	rings := GenerateKeyrings(4, 9)
	msg := []byte("m")
	a := rings[2].Authenticate(msg)
	// Replica 1 claims the message came from replica 3: MAC mismatch.
	if rings[0].VerifyFrom(3, msg, a) {
		t.Fatal("authenticator accepted under wrong sender identity")
	}
	if rings[0].VerifyFrom(-1, msg, a) || rings[0].VerifyFrom(4, msg, a) {
		t.Fatal("out-of-range sender accepted")
	}
}

func TestHashIsStableAndSensitive(t *testing.T) {
	d1 := Hash([]byte("block 1"))
	d2 := Hash([]byte("block 1"))
	d3 := Hash([]byte("block 2"))
	if d1 != d2 {
		t.Fatal("hash not deterministic")
	}
	if d1 == d3 {
		t.Fatal("hash collision on different input")
	}
}

func TestCostsScale(t *testing.T) {
	p := model.Default().Crypto
	if Cost(p, 100<<10) <= Cost(p, 1<<10) {
		t.Fatal("HMAC cost must grow with size")
	}
	if DigestCost(p, 100<<10) <= DigestCost(p, 1<<10) {
		t.Fatal("digest cost must grow with size")
	}
	if AuthenticatorCost(p, 4, 1024) != 3*Cost(p, 1024) {
		t.Fatal("authenticator cost should be (n-1) HMACs")
	}
	if AuthenticatorCost(p, 1, 1024) != 0 {
		t.Fatal("single-replica authenticator should cost nothing")
	}
}

func TestAuthenticatorSize(t *testing.T) {
	rings := GenerateKeyrings(4, 1)
	size := 0
	for _, mac := range rings[0].Authenticate([]byte("m")) {
		size += len(mac)
	}
	if size != 3*MACSize {
		t.Fatalf("wire size = %d, want %d (no MAC for the sender itself)", size, 3*MACSize)
	}
}

// Property: every replica verifies every other replica's authenticator
// over arbitrary messages; no replica verifies a flipped-bit message.
func TestPropertyAuthenticatorSoundness(t *testing.T) {
	rings := GenerateKeyrings(4, 123)
	prop := func(msg []byte, flip uint8) bool {
		if len(msg) == 0 {
			msg = []byte{0}
		}
		sender := int(flip) % 4
		a := rings[sender].Authenticate(msg)
		for r := 0; r < 4; r++ {
			if r == sender {
				continue
			}
			if !rings[r].VerifyFrom(sender, msg, a) {
				return false
			}
		}
		bad := bytes.Clone(msg)
		bad[int(flip)%len(bad)] ^= 1 << (flip % 8)
		if bytes.Equal(bad, msg) {
			return true
		}
		for r := 0; r < 4; r++ {
			if r == sender {
				continue
			}
			if rings[r].VerifyFrom(sender, bad, a) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// The MAC scratch contract: Verify must not clobber a held MAC result,
// and a second MAC call on the same keyring overwrites the first.
func TestMACScratchAliasing(t *testing.T) {
	rings := GenerateKeyrings(3, 5)
	msg := []byte("aliasing probe")
	mac := rings[0].MAC(1, msg)
	want := bytes.Clone(mac)
	rings[0].Verify(2, msg, want) // any Verify; must leave mac intact
	if !bytes.Equal(mac, want) {
		t.Fatal("Verify clobbered a held MAC result")
	}
	rings[0].MAC(2, msg)
	if bytes.Equal(mac, want) {
		t.Fatal("second MAC did not reuse the scratch — pooled state regressed?")
	}
}

func TestAuthenticatorEntriesAreStable(t *testing.T) {
	rings := GenerateKeyrings(4, 6)
	msg := []byte("stable entries")
	a := rings[0].Authenticate(msg)
	want := bytes.Clone(a[1])
	// Later MACs and authenticators must not mutate the earlier vector.
	rings[0].MAC(1, []byte("other"))
	rings[0].Authenticate([]byte("another"))
	if !bytes.Equal(a[1], want) {
		t.Fatal("Authenticate entries alias the MAC scratch")
	}
}

func TestMACVerifySteadyStateAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under the race detector")
	}
	msg := make([]byte, 4096)
	for _, n := range []int{4, 7, 16} {
		rings := GenerateKeyrings(n, 7)
		mac := bytes.Clone(rings[0].MAC(1, msg)) // warm up peer-1 state
		rings[1].Verify(0, msg, mac)             // warm up verifier state
		rings[0].Authenticate(msg)
		// Authenticate returns stable copies, so it pays exactly two
		// allocations at any group size: the vector and its shared
		// backing array.
		for _, tc := range []struct {
			op   string
			fn   func()
			want float64
		}{
			{"MAC", func() { rings[0].MAC(1, msg) }, 0},
			{"Verify", func() { rings[1].Verify(0, msg, mac) }, 0},
			{"Authenticate", func() { rings[0].Authenticate(msg) }, 2},
		} {
			if avg := testing.AllocsPerRun(200, tc.fn); avg != tc.want {
				t.Errorf("n=%d: %s allocates %.2f/op steady-state, want %v", n, tc.op, avg, tc.want)
			}
		}
	}
}

func TestGenerateKeyringsPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	GenerateKeyrings(0, 1)
}

// TestMACVerifyNegativeTable drives Verify through every malformed-input
// class a Byzantine sender (or a broken codec) could produce: truncated
// and padded MACs, MACs under the wrong pairwise key, cross-sender
// replays and empty-message edge cases. None may verify.
func TestMACVerifyNegativeTable(t *testing.T) {
	rings := GenerateKeyrings(4, 21)
	otherDeployment := GenerateKeyrings(4, 22) // same shape, different seed
	msg := []byte("prepare v3 n41")
	// MAC's result aliases the keyring scratch; clone because rings[0]
	// computes another MAC below while this one is still in use.
	valid := bytes.Clone(rings[0].MAC(1, msg))
	cases := []struct {
		name     string
		receiver *Keyring
		sender   int
		msg      []byte
		mac      []byte
	}{
		{"truncated MAC (half)", rings[1], 0, msg, valid[:MACSize/2]},
		{"truncated MAC (one byte short)", rings[1], 0, msg, valid[:MACSize-1]},
		{"empty MAC", rings[1], 0, msg, []byte{}},
		{"nil MAC", rings[1], 0, msg, nil},
		{"padded MAC", rings[1], 0, msg, append(bytes.Clone(valid), 0)},
		{"wrong key (other deployment)", otherDeployment[1], 0, msg, valid},
		{"cross-sender replay (2 claims 0's MAC)", rings[1], 2, msg, valid},
		{"wrong receiver (meant for 1, checked by 2)", rings[2], 0, msg, valid},
		{"empty message under valid-shape MAC", rings[1], 0, []byte{}, valid},
		{"MAC of empty message against real message", rings[1], 0, msg, rings[0].MAC(1, []byte{})},
	}
	for _, tc := range cases {
		if tc.receiver.Verify(tc.sender, tc.msg, tc.mac) {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// The empty message itself is still authenticatable — only the
	// mismatches above must fail.
	emptyMAC := rings[0].MAC(1, nil)
	if !rings[1].Verify(0, nil, emptyMAC) {
		t.Error("valid MAC over the empty message rejected")
	}
}

// TestAuthenticatorNegativeTable does the same for full authenticator
// vectors: truncated vectors, entries swapped between receivers,
// replayed vectors under a different claimed sender, and empty payloads.
func TestAuthenticatorNegativeTable(t *testing.T) {
	rings := GenerateKeyrings(4, 23)
	msg := []byte("commit v0 n9")
	a := rings[0].Authenticate(msg)

	swapped := make(Authenticator, len(a))
	copy(swapped, a)
	swapped[1], swapped[2] = swapped[2], swapped[1]

	truncatedVector := a[:2] // receivers 2 and 3 have no entry at all

	truncatedEntries := make(Authenticator, len(a))
	for i, m := range a {
		if len(m) > 0 {
			truncatedEntries[i] = m[:MACSize-1]
		}
	}

	cases := []struct {
		name     string
		receiver *Keyring
		sender   int
		msg      []byte
		auth     Authenticator
	}{
		{"cross-sender replay (claimed 2, built by 0)", rings[1], 2, msg, a},
		{"cross-receiver entry swap", rings[1], 0, msg, swapped},
		{"truncated vector", rings[2], 0, msg, truncatedVector},
		{"truncated entries", rings[1], 0, msg, truncatedEntries},
		{"nil authenticator", rings[1], 0, msg, nil},
		{"empty message under real authenticator", rings[1], 0, []byte{}, a},
		{"out-of-range sender (negative)", rings[1], -1, msg, a},
		{"out-of-range sender (past N)", rings[1], 4, msg, a},
	}
	for _, tc := range cases {
		if tc.receiver.VerifyFrom(tc.sender, tc.msg, tc.auth) {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
