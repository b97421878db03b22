package pbft

import "testing"

// TestProposalWaitsForTheClientsCopy: a PRE-PREPARE overtakes the client's
// copies of its two requests. The backup parks it and asks the leader for
// the copies once — a bare backup's FETCH shows as one send fault — and
// PREPAREs nothing until both copies are filed: the first leaves it parked,
// the second lets it prepare.
func TestProposalWaitsForTheClientsCopy(t *testing.T) {
	backup := bareReplica(t, 1, DefaultConfig())
	_, raw := sealedProposal(backup, false)
	backup.handleEnvelope(raw)
	backup.handleEnvelope(raw) // a second delivery asks again for nothing
	s := backup.lookup(1)
	if s == nil || !s.parked || s.sentPrep || *backup.sendFaults != 1 {
		t.Fatalf("before the copies: slot %v, parked %v, prepared %v, %d sends; want parked after one FETCH",
			s != nil, s != nil && s.parked, s != nil && s.sentPrep, *backup.sendFaults)
	}
	batch := batchOf(2, 64)
	backup.handleRequest(batch[0], nil)
	if !s.parked || s.sentPrep {
		t.Fatal("one of two copies filed, and the proposal is no longer parked")
	}
	backup.handleRequest(batch[1], nil)
	if s.parked || !s.sentPrep || backup.stranded(1) {
		t.Errorf("both copies filed: parked %v, prepared %v, stranded %v; want it prepared", s.parked, s.sentPrep, backup.stranded(1))
	}
	for _, req := range batch {
		if row := backup.requests[req.ID()]; row.state != assigned || row.seq != 1 {
			t.Errorf("request %v: row in state %d at sequence %d, want assigned to 1", req.ID(), row.state, row.seq)
		}
	}
}

// TestFetchAnswerIsFiledOnlyIfItMatches: a backup parks a proposal of two
// requests. An answer from the leader that carries another operation under
// the first request's identity is never filed, nor is one for a request no
// parked proposal names; the genuine answers are, and the proposal
// prepares on the second.
func TestFetchAnswerIsFiledOnlyIfItMatches(t *testing.T) {
	backup := bareReplica(t, 1, DefaultConfig())
	_, raw := sealedProposal(backup, false)
	backup.handleEnvelope(raw)
	batch := batchOf(2, 64)
	forged := batch[0]
	forged.Op = []byte("not the client's operation")
	unasked := Request{Client: 100, Timestamp: 99, Op: []byte("x")}
	for _, req := range []Request{forged, unasked} {
		backup.handleEnvelope(sealedBy(backup, 0, req))
		if _, filed := backup.requests[req.ID()]; filed {
			t.Errorf("an answer for %v that no parked ref names was filed", req.ID())
		}
	}
	s := backup.lookup(1)
	for i, req := range batch {
		backup.handleEnvelope(sealedBy(backup, 0, req))
		if row, filed := backup.requests[req.ID()]; !filed || string(backup.copyOf(row).op) != string(req.Op) {
			t.Fatalf("the genuine answer for request %d was not filed", i)
		}
		if last := i == len(batch)-1; s.parked == last || s.sentPrep != last {
			t.Errorf("after %d genuine answers: parked %v, prepared %v", i+1, s.parked, s.sentPrep)
		}
	}
}

// TestFetchAnswerOfAnUnregisteredClientFilesNothing: a leader proposes a
// request naming a client id no front-end registered, and answers the
// backup's FETCH with it. The answer matches the parked ref, and still the
// backup makes no row for it: the proposal stays parked.
func TestFetchAnswerOfAnUnregisteredClientFilesNothing(t *testing.T) {
	backup := bareReplica(t, 1, DefaultConfig())
	req := Request{Client: 555, Timestamp: 1, Op: []byte("put")}
	batch := []Request{req}
	backup.handleEnvelope(sealedBy(backup, 0, PrePrepare{View: 0, Seq: 1, Digest: BatchDigest(batch), Refs: refsOf(batch)}))
	s := backup.lookup(1)
	if s == nil || !s.parked {
		t.Fatal("the proposal of a request the backup never got is not parked")
	}
	backup.handleEnvelope(sealedBy(backup, 0, req))
	if _, filed := backup.requests[req.ID()]; filed || !s.parked || backup.client(555) != nil {
		t.Errorf("an answer naming unregistered client 555: filed %v, parked %v, client row %v; want nothing filed",
			filed, s.parked, backup.client(555) != nil)
	}
}

// TestRestartedReplicaFetchesWhatItMissed: replica 3 crashes once the group
// has a stable checkpoint, and a client sends three requests while it is
// down; it restarts before the leader proposes them. The restarted replica
// adopts the checkpoint, then gets a proposal naming requests it never
// received: it fetches them from the leader and reaches the group's
// Executed and state without waiting for another checkpoint.
func TestRestartedReplicaFetchesWhatItMissed(t *testing.T) {
	for _, kind := range kinds() {
		cfg := DefaultConfig()
		cfg.CheckpointEvery = 4
		h := newStepCluster(t, kind, cfg)
		for ts := uint64(1); ts <= 4; ts++ { // one request per batch: sequences 1–4, a checkpoint at 4
			h.submit(ts, 0, 1, 2, 3)
			h.drain(everything)
		}
		h.Crash(3)
		for ts := uint64(5); ts <= 7; ts++ {
			h.submit(ts, 0, 1, 2)
		}
		must(t, h.Restart(3))
		h.drain(everything)
		fetches := 0
		for _, e := range h.done {
			if e.typ() == MsgFetch && e.to == 0 {
				fetches++
			}
		}
		rep := h.Replicas[3]
		for ts := uint64(5); ts <= 7; ts++ {
			if !h.completed(ts) {
				h.fatalf("%s: request %d answered by %v, want F+1 matching", kind, ts, h.answers(ts))
			}
		}
		if h.Replicas[0].Executed() != 5 || h.Replicas[0].Stable() != 4 {
			h.fatalf("%s: the group executed %d (stable %d); want one batch at 5 above the checkpoint at 4",
				kind, h.Replicas[0].Executed(), h.Replicas[0].Stable())
		}
		if rep.Executed() != 5 || rep.StateTransfers() != 1 || fetches == 0 || h.Apps[3].Snapshot() != h.Apps[0].Snapshot() {
			h.errorf("%s: the restarted replica executed %d after %d state transfers and %d FETCHes, state equal %v; want 5, 1, some, true",
				kind, rep.Executed(), rep.StateTransfers(), fetches, h.Apps[3].Snapshot() == h.Apps[0].Snapshot())
		}
	}
}
