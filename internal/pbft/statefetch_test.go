package pbft

import (
	"bytes"
	"fmt"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/sim"
)

// fetchFixture is a source store ahead of an empty fetching store, with
// the manifest and divergent parts a responder would serve for it.
type fetchFixture struct {
	src, dst *kvstore.Store
	cps      *checkpointStore
	fetch    *stateFetcher
}

const fixtureSeq = 8

func newFetchFixture() *fetchFixture {
	src := kvstore.New()
	for k := 0; k < 40; k++ {
		put(src, fmt.Sprintf("key%03d", k), "value")
	}
	return &fetchFixture{src: src, dst: kvstore.New(), cps: newCheckpointStore(4), fetch: newStateFetcher(DefaultConfig(), fabric.New(sim.NewLoop(1), model.Default()).AddNode("dst"))}
}

func (x *fetchFixture) manifest(sender uint32, view uint64) StateManifest {
	return StateManifest{
		Seq: fixtureSeq, View: view, Root: x.src.Snapshot(),
		Header: x.src.MarshalHeader(), Digests: partitionDigests(x.src), Replica: sender,
	}
}

// divergent lists the partitions the fetching store would have to receive.
func (x *fetchFixture) divergent() []int {
	var parts []int
	local := partitionDigests(x.dst)
	for i, d := range partitionDigests(x.src) {
		if local[i] != d {
			parts = append(parts, i)
		}
	}
	return parts
}

// serve offers sender's manifest and every divergent part except skip.
func (x *fetchFixture) serve(t *testing.T, sender uint32, view uint64, skip int) {
	t.Helper()
	if !x.fetch.offerManifest(x.dst, 0, sender, x.manifest(sender, view)) {
		t.Fatalf("manifest from %d refused", sender)
	}
	for _, i := range x.divergent() {
		if i == skip {
			continue
		}
		part := StatePart{Seq: fixtureSeq, Part: uint32(i), Data: x.src.MarshalPartition(i), Replica: sender}
		if hashed, stored := x.fetch.offerPart(sender, part); !hashed || !stored {
			t.Fatalf("honest part %d from %d refused", i, sender)
		}
	}
}

func (x *fetchFixture) tryAdopt(view uint64) (adoption, bool) {
	return x.fetch.tryAdopt(x.dst, x.cps, 0, view)
}

// TestFetcherCertification pins the two certification paths and the view
// each one lets the replica rejoin in.
func TestFetcherCertification(t *testing.T) {
	t.Run("F+1 matching manifests", func(t *testing.T) {
		x := newFetchFixture()
		x.serve(t, 1, 5, -1)
		if _, ok := x.tryAdopt(2); ok {
			t.Fatal("a lone uncertified manifest was adopted")
		}
		// The second voucher sends only its manifest: parts are
		// interchangeable once verified against the same digest list.
		if !x.fetch.offerManifest(x.dst, 0, 2, x.manifest(2, 3)) {
			t.Fatal("second manifest refused")
		}
		a, ok := x.tryAdopt(2)
		if !ok || a.seq != fixtureSeq || a.root != x.src.Snapshot() {
			t.Fatalf("F+1 matching manifests did not certify: %+v ok=%v", a, ok)
		}
		if a.view != 3 {
			t.Fatalf("rejoin view %d, want 3 — the minimum the F+1 vouchers reported", a.view)
		}
		if x.dst.Snapshot() != x.src.Snapshot() {
			t.Fatal("adopted state does not match the source")
		}
		if rec := recordAt(x.cps, fixtureSeq); rec == nil || !rec.base || rec.digest != a.root {
			t.Fatal("adopted checkpoint was not retained as a base for serving peers")
		}
	})
	t.Run("lone manifest needs a 2F+1 certificate", func(t *testing.T) {
		x := newFetchFixture()
		x.serve(t, 1, 9, -1)
		root := x.src.Snapshot()
		x.cps.vote(fixtureSeq, 0, root)
		x.cps.vote(fixtureSeq, 1, root)
		if _, ok := x.tryAdopt(2); ok {
			t.Fatal("adopted on 2F checkpoint votes")
		}
		x.cps.vote(fixtureSeq, 2, auth.Hash([]byte("other")))
		if _, ok := x.tryAdopt(2); ok {
			t.Fatal("a vote for a different digest completed the certificate")
		}
		x.cps.vote(fixtureSeq, 3, root)
		a, ok := x.tryAdopt(2)
		if !ok {
			t.Fatal("2F+1 certificate plus one manifest did not certify")
		}
		if a.view != 2 {
			t.Fatalf("rejoin view %d, want the local view 2 — a lone sender's view is uncorroborated", a.view)
		}
	})
}

// TestFetcherRejectsCorruptPart: a part failing its digest bans the
// sender and is counted; the ban outlives further manifests from it.
func TestFetcherRejectsCorruptPart(t *testing.T) {
	x := newFetchFixture()
	x.serve(t, 1, 1, -1)
	if !x.fetch.offerManifest(x.dst, 0, 2, x.manifest(2, 1)) {
		t.Fatal("manifest refused")
	}
	i := x.divergent()[0]
	bad := bytes.Clone(x.src.MarshalPartition(i)) // read-only: corrupt a copy
	bad[len(bad)-1] ^= 0xFF
	hashed, stored := x.fetch.offerPart(2, StatePart{Seq: fixtureSeq, Part: uint32(i), Data: bad, Replica: 2})
	if !hashed || stored {
		t.Fatalf("corrupt part: hashed=%v stored=%v, want digested and refused", hashed, stored)
	}
	if *x.fetch.rejects != 1 || !x.fetch.banned[2] || x.fetch.xfers[2] != nil {
		t.Fatal("corrupt sender was not dropped, banned and counted")
	}
	if x.fetch.offerManifest(x.dst, 0, 2, x.manifest(2, 1)) {
		t.Fatal("banned sender's manifest accepted")
	}
	if _, ok := x.tryAdopt(0); ok {
		t.Fatal("adopted with one honest voucher and one banned one")
	}
	// An out-of-range partition index and a manifest that does not
	// compose to its root are rejections too.
	if hashed, _ := x.fetch.offerPart(1, StatePart{Seq: fixtureSeq, Part: 1 << 20, Replica: 1}); hashed || !x.fetch.banned[1] {
		t.Fatal("out-of-range partition index not rejected")
	}
	lie := x.manifest(3, 1)
	lie.Root[0] ^= 0xFF
	if x.fetch.offerManifest(x.dst, 0, 3, lie) || *x.fetch.rejects != 3 {
		t.Fatalf("inconsistent manifest accepted (rejects=%d)", *x.fetch.rejects)
	}
}

// TestFetcherIncompleteDoesNotAdopt: a certified root whose divergent
// partitions have not all arrived leaves the application untouched.
func TestFetcherIncompleteDoesNotAdopt(t *testing.T) {
	x := newFetchFixture()
	missing := x.divergent()[0]
	x.serve(t, 1, 1, missing)
	x.serve(t, 2, 1, missing)
	before := x.dst.Snapshot()
	if _, ok := x.tryAdopt(0); ok {
		t.Fatal("adopted with a divergent partition still missing")
	}
	if x.dst.Snapshot() != before || recordAt(x.cps, fixtureSeq) != nil {
		t.Fatal("a refused adoption left traces in the application or the store")
	}
	part := StatePart{Seq: fixtureSeq, Part: uint32(missing), Data: x.src.MarshalPartition(missing), Replica: 2}
	if _, stored := x.fetch.offerPart(2, part); !stored {
		t.Fatal("last part refused")
	}
	if _, ok := x.tryAdopt(0); !ok {
		t.Fatal("complete certified transfer not adopted")
	}
}
