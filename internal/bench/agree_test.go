package bench

import (
	"fmt"
	"strings"
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/pbft"
	"rubin/internal/shard"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// plainPBFT builds and starts one 4-replica PBFT group on kind, seed 1,
// with one router.
func plainPBFT(t *testing.T, kind transport.Kind) *deployment {
	t.Helper()
	d, err := deploy(deploySpec{kind: kind, seed: 1, conns: 1}, shard.Config{Shards: 1, PBFT: pbftConfig(4, 1, 0)}, oneHostSet, model.Default())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// putRunDeployment runs puts through a fresh 4-replica deployment to
// completion and returns it.
func putRunDeployment(t *testing.T, puts int) *deployment {
	t.Helper()
	d := plainPBFT(t, transport.KindTCP)
	d.putLoop(2, 64, func(_, sent int) (string, bool) { return fmt.Sprintf("k%02d", sent), sent < puts },
		func(int, sim.Time) bool { return true })
	d.loop.Run()
	return d
}

// TestLedgerNamesADisagreement: a replica that reports another batch at a
// sequence than the one first filed there fails the run, the message
// naming the group, the sequence and both replicas; another client's
// request under the same identity is a different batch too.
func TestLedgerNamesADisagreement(t *testing.T) {
	l := plainPBFT(t, transport.KindTCP).ledgers[0]
	put := pbft.Request{Client: 100, Timestamp: 1, Op: kvstore.EncodeOp(kvstore.OpPut, "k", "v")}
	other := put
	other.Op = kvstore.EncodeOp(kvstore.OpPut, "k", "w")
	if err := l.file(0, 3, []pbft.Request{put}); err != nil {
		t.Fatal(err)
	}
	if err := l.file(2, 3, []pbft.Request{put}); err != nil {
		t.Fatalf("an equal batch disagrees: %v", err)
	}
	err := l.file(1, 3, []pbft.Request{other})
	if err == nil || !strings.Contains(err.Error(), "group 0: replicas 0 and 1 executed different batches at sequence 3") {
		t.Fatalf("another operation at sequence 3: %v", err)
	}
}

// TestLedgerFilesTheBatchDigest: a hook's batch is lent, so the ledger
// files its digest. A filed batch whose request slice and op bytes are
// written over once the hook returns raises no disagreement with an equal
// later report, and a really different batch is still reported.
func TestLedgerFilesTheBatchDigest(t *testing.T) {
	l := plainPBFT(t, transport.KindTCP).ledgers[0]
	batch := func(value string) []pbft.Request {
		return []pbft.Request{
			{Client: 100, Timestamp: 1, Op: kvstore.EncodeOp(kvstore.OpPut, "a", value)},
			{Client: 101, Timestamp: 1, Op: kvstore.EncodeOp(kvstore.OpPut, "b", value)},
		}
	}
	lent := batch("v")
	if err := l.file(0, 3, lent); err != nil {
		t.Fatal(err)
	}
	for i := range lent {
		for j := range lent[i].Op {
			lent[i].Op[j] = 0xEE
		}
		lent[i].Client = 0
	}
	if err := l.file(2, 3, batch("v")); err != nil {
		t.Fatalf("an equal batch disagrees once the first report's bytes were overwritten: %v", err)
	}
	if err := l.file(1, 3, batch("w")); err == nil || !strings.Contains(err.Error(), "replicas 0 and 1 executed different batches at sequence 3") {
		t.Fatalf("another operation at sequence 3: %v", err)
	}
}

// TestLedgerHoldsOnlyTheSpread: once every replica executed every batch of
// a run, the ledger holds nothing, and the run agrees.
func TestLedgerHoldsOnlyTheSpread(t *testing.T) {
	d := putRunDeployment(t, 40)
	if err := d.check(); err != nil {
		t.Fatal(err)
	}
	if l := d.ledgers[0]; len(l.first) != 0 || l.floor != d.groups[0].Replicas[0].Executed() || l.floor == 0 {
		t.Errorf("after the run the ledger holds %d sequences, floor %d; want none, floor %d", len(l.first), l.floor, d.groups[0].Replicas[0].Executed())
	}
}

// TestCheckFailsOnDivergedState: replicas that executed as far as each
// other must hold the same state. One replica whose store took a write
// the group never ordered fails the check.
func TestCheckFailsOnDivergedState(t *testing.T) {
	d := putRunDeployment(t, 8)
	d.groups[0].Apps[2].Execute(kvstore.EncodeOp(kvstore.OpPut, "stray", "x"))
	if err := d.check(); err == nil || !strings.Contains(err.Error(), "replicas 0 and 2 executed") {
		t.Fatalf("a diverged store passes the check: %v", err)
	}
}
