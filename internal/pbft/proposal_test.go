package pbft

import (
	"bytes"
	"testing"

	"rubin/internal/auth"
	"rubin/internal/model"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// TestProposalLeavesWhenItsWorkIsDone: a leader with idle cores admits four
// 1 KB requests a quarter batchDelay apart into a batch of four. It digests each request
// when it files it, and each one's ordering — marshalling a 44-byte ref,
// not the request — starts on the leader CPU when it is admitted, so the
// pre-prepare leaves when the last request's digest and ordering and the
// batch digest are done: not one batch-length job after the batch closed.
// The CPU is charged those jobs and an authenticator over the header.
func TestProposalLeavesWhenItsWorkIsDone(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BatchSize = 4
	r := bareReplica(t, 0, cfg)
	loop, params := r.node.Loop(), r.node.Network().Params()
	gap := batchDelay / 4
	batch := batchOf(4, 1024)
	for i, req := range batch {
		loop.At(sim.Time(i)*gap, func() { r.handleRequest(req, nil) })
	}
	for *r.sendFaults == 0 && loop.Step() { // a bare leader's broadcast shows as send faults
	}
	if *r.sendFaults == 0 {
		t.Fatal("the leader never broadcast its pre-prepare")
	}
	closed := 3 * gap
	order, filed := params.Protocol.OrderCost(refSize), auth.DigestCost(params.Crypto, 1024)
	size := encodedSize(r.lookup(1).pp)
	digest := auth.DigestCost(params.Crypto, size)
	if want := closed + max(order, filed, digest); loop.Now() != want {
		t.Errorf("the pre-prepare left at %v, want %v: the last admission plus its ordering (%v), its digest (%v) or the batch digest (%v)",
			loop.Now(), want, order, filed, digest)
	}
	if busy, want := r.node.CPU.BusyTotal(), 4*(filed+order)+digest+auth.AuthenticatorCost(params.Crypto, cfg.N, ppHeader); busy != want {
		t.Errorf("leader CPU busy %v for the batch, want %v: four digests and orderings, the batch digest and an authenticator over the header", busy, want)
	}
}

// TestSizeCutRestartsTheBatchTimer: requests 1–n arrive batchDelay/2n
// apart and the nth cuts a batch of n by count; request n+1 arrives one gap
// after the cut. It waits one full batchDelay for company, not what was
// left of the timer request 1 armed. Small ops are cut at BatchSize 4 when
// it is set, and at DefaultConfig's BatchSize otherwise.
func TestSizeCutRestartsTheBatchTimer(t *testing.T) {
	for _, tc := range []struct{ batch, n int }{{4, 4}, {0, DefaultConfig().BatchSize}} { // batch 0: DefaultConfig's
		cfg := DefaultConfig()
		if tc.batch > 0 {
			cfg.BatchSize = tc.batch
		}
		r := bareReplica(t, 0, cfg)
		loop := r.node.Loop()
		gap := batchDelay / sim.Time(2*tc.n) // the n arrive within half a batchDelay
		for i, req := range batchOf(tc.n+1, 64) {
			loop.At(sim.Time(i)*gap, func() { r.handleRequest(req, nil) })
		}
		for (r.lookup(2) == nil || !r.lookup(2).proposed) && loop.Step() {
		}
		if got := len(r.lookup(1).pp.Refs); got != tc.n {
			t.Errorf("BatchSize %d: the size cut proposed %d requests, want %d", cfg.BatchSize, got, tc.n)
		}
		if want := sim.Time(tc.n)*gap + batchDelay; loop.Now() != want {
			t.Errorf("BatchSize %d: the request admitted after the size cut was proposed at %v, want %v: its own batchDelay after it arrived",
				cfg.BatchSize, loop.Now(), want)
		}
	}
}

// TestByteCutLeavesTheRestForTheTimer: eight 32 KiB ops arrive together.
// The eighth brings the pending bytes to batchBytes, so the leader cuts,
// and the proposal takes the seven that stay below it. The eighth is not
// proposed alone at once: it waits a full batchDelay for company.
func TestByteCutLeavesTheRestForTheTimer(t *testing.T) {
	r := bareReplica(t, 0, DefaultConfig())
	loop := r.node.Loop()
	loop.At(0, func() {
		for _, req := range batchOf(8, 32<<10) {
			r.handleRequest(req, nil)
		}
	})
	for (r.lookup(2) == nil || !r.lookup(2).proposed) && loop.Step() {
	}
	if got := len(r.lookup(1).pp.Refs); got != 7 {
		t.Fatalf("eight 32 KiB ops: the byte cut proposed %d, want 7", got)
	}
	if got := len(r.lookup(2).pp.Refs); got != 1 || loop.Now() != batchDelay {
		t.Errorf("what the cut left, %d request(s), was proposed at %v, want 1 at %v", got, loop.Now(), batchDelay)
	}
}

// TestOpAboveBatchBytesIsProposedAtOnce: one op larger than batchBytes fills
// a batch on its own, so it is proposed when it arrives, not a batchDelay
// later.
func TestOpAboveBatchBytesIsProposedAtOnce(t *testing.T) {
	r := bareReplica(t, 0, DefaultConfig())
	loop := r.node.Loop()
	loop.At(0, func() { r.handleRequest(batchOf(1, 300<<10)[0], nil) })
	for (r.lookup(1) == nil || !r.lookup(1).proposed) && loop.Step() {
	}
	if s := r.lookup(1); s == nil || len(s.pp.Refs) != 1 || loop.Now() != 0 {
		t.Errorf("a 300 KiB op was proposed at %v, want at once, alone", loop.Now())
	}
}

// TestBatchBytesIsTheTransportMessageBound: the byte bound of a batch is
// the largest message the transport carries by default.
func TestBatchBytesIsTheTransportMessageBound(t *testing.T) {
	if got := transport.DefaultOptions().MaxMessage; batchBytes != got {
		t.Errorf("batchBytes = %d, transport.DefaultOptions().MaxMessage = %d", batchBytes, got)
	}
}

// sealedProposal returns a one-sequence proposal of leader 0, naming two
// requests, and its envelope as the leader would send it, in a buffer of
// its own; with hold, r first gets the client's copies of the requests.
func sealedProposal(r *Replica, hold bool) (PrePrepare, []byte) {
	batch := batchOf(2, 64)
	if hold {
		for _, req := range batch {
			r.handleRequest(req, nil)
		}
	}
	pp := PrePrepare{View: 0, Seq: 1, Digest: BatchDigest(batch), Refs: refsOf(batch)}
	return pp, sealedBy(r, 0, pp)
}

// TestPrePrepareMACCoversTheHeader: a pre-prepare's MACs cover its header
// only, and its digest binds the refs. A ref byte flipped in transit
// passes the MAC, but the digest check drops the proposal: no backup
// PREPAREs it, and none suspects the leader, since whoever flipped it need
// not be the leader. A flipped header byte is dropped by the MAC, before
// the digest is computed.
func TestPrePrepareMACCoversTheHeader(t *testing.T) {
	cfg, crypto := DefaultConfig(), model.Default().Crypto
	for _, tc := range []struct {
		name     string
		at       func(size int) int // offset of the flipped payload byte
		prepared bool
		suspects bool
		charged  sim.Time // the backup's CPU charge for the proposal, when pinned
	}{
		{"intact", nil, true, false, 0},
		{"ref byte", func(size int) int { return size - 1 }, false, false, 0},
		{"header byte", func(int) int { return 1 + 8 }, false, false, auth.Cost(crypto, ppHeader)},
	} {
		for id := uint32(1); id < uint32(cfg.N); id++ {
			backup := bareReplica(t, id, cfg)
			pp, raw := sealedProposal(backup, true)
			if tc.at != nil {
				raw[8+tc.at(encodedSize(pp))] ^= 0xFF
			}
			before := backup.node.CPU.BusyTotal()
			backup.handleEnvelope(raw)
			s := backup.lookup(1)
			if prepared := s != nil && s.sentPrep; prepared != tc.prepared || backup.viewChanging != tc.suspects {
				t.Errorf("%s, backup %d: prepared %v, suspects the leader %v; want %v, %v",
					tc.name, id, prepared, backup.viewChanging, tc.prepared, tc.suspects)
			}
			if busy := backup.node.CPU.BusyTotal() - before; tc.charged > 0 && busy != tc.charged {
				t.Errorf("%s, backup %d: CPU busy %v, want %v: one MAC check over the header and nothing else", tc.name, id, busy, tc.charged)
			}
		}
	}
}

// TestRelayedTamperedProposalStartsNoViewChange: a pre-prepare's envelope
// holds every backup's MAC, and a connection does not vouch for the sender
// the envelope names, so a faulty replica can relay the leader's proposal
// with one byte of a ref flipped. Replica 2 does so to the other two backups,
// once before the genuine proposal reaches them and once after they
// accepted it: the request still commits, and no replica demands a view
// change.
func TestRelayedTamperedProposalStartsNoViewChange(t *testing.T) {
	h := newStepCluster(t, transport.KindRDMA, DefaultConfig())
	h.submit(1, 0, 1, 2, 3)
	h.settle(0)
	pp := h.pending[0] // the leader's proposal, as it reaches replica 1
	tampered := bytes.Clone(pp.raw)
	tampered[8+len(pp.payload)-1] ^= 0xFF // the last byte of its last ref
	h.outside("a tampered proposal")
	for range 2 {
		for _, to := range []int{1, 3} {
			h.Replicas[to].handleEnvelope(tampered)
		}
		h.drain(everything)
	}
	if !h.completed(1) {
		h.errorf("the request did not complete: answered by %v", h.answers(1))
	}
	for i, r := range h.Replicas {
		if r.Executed() != 1 || r.view != 0 || r.viewChanging || r.demanded != 0 {
			h.errorf("replica %d: executed %d, view %d, changing %v, demanded view %d; a relayed batch must not replace the leader",
				i, r.Executed(), r.view, r.viewChanging, r.demanded)
		}
	}
}

// TestPrePrepareAuthenticationCharges pins the modeled crypto of a
// proposal: the leader's broadcast costs an authenticator over the 49-byte
// header, and a backup's check one MAC verification over the header plus
// the batch digest over the whole payload, and then the authenticator of
// the PREPARE it answers with. Every other message is MAC'd whole.
func TestPrePrepareAuthenticationCharges(t *testing.T) {
	cfg := DefaultConfig()
	leader := bareReplica(t, 0, cfg)
	crypto := leader.node.Network().Params().Crypto
	pp, _ := sealedProposal(leader, false)
	size := encodedSize(pp)
	if ppHeader != 49 {
		t.Fatalf("the pre-prepare header is %d bytes, want 49: type, view, sequence, digest", ppHeader)
	}
	before := leader.node.CPU.BusyTotal()
	leader.broadcast(pp)
	if got, want := leader.node.CPU.BusyTotal()-before, auth.AuthenticatorCost(crypto, cfg.N, ppHeader); got != want {
		t.Errorf("the pre-prepare broadcast costs %v, want %v: an authenticator over the header", got, want)
	}
	prep := Prepare{View: 0, Seq: 1, Digest: pp.Digest, Replica: 0}
	before = leader.node.CPU.BusyTotal()
	leader.broadcast(prep)
	if got, want := leader.node.CPU.BusyTotal()-before, auth.AuthenticatorCost(crypto, cfg.N, len(Encode(prep))); got != want {
		t.Errorf("a PREPARE broadcast costs %v, want %v: an authenticator over the whole payload", got, want)
	}
	backup := bareReplica(t, 1, cfg)
	_, raw := sealedProposal(backup, true)
	before = backup.node.CPU.BusyTotal()
	backup.handleEnvelope(raw)
	if s := backup.lookup(1); s == nil || !s.sentPrep {
		t.Fatal("the backup did not accept the proposal")
	}
	answer := auth.AuthenticatorCost(crypto, cfg.N, len(Encode(Prepare{View: 0, Seq: 1, Digest: pp.Digest, Replica: 1})))
	if got, want := backup.node.CPU.BusyTotal()-before, auth.Cost(crypto, ppHeader)+auth.DigestCost(crypto, size)+answer; got != want {
		t.Errorf("checking the pre-prepare and answering it cost %v, want %v: a MAC over the header, the digest over %d bytes and the PREPARE's authenticator", got, want, size)
	}
}
