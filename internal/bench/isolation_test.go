package bench

import (
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/pbft"
	"rubin/internal/shard"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// TestAgreementIsIsolatedFromAReadFlood: floods front-ends keep
// floodWindow fast READ-REQUESTs outstanding each while one more front-end
// commits puts one at a time. The flood keeps each replica's client
// selector busy all the time, and its CPU 0.91 (rdma-rubin) and 0.74
// (tcp-nio) of its cores. A replica serves its clients on one selector and
// its peers on another (pbft.Hosts), so the flood queues ahead of a put's
// REQUEST, never ahead of its PRE-PREPARE, PREPARE or COMMIT: a put's
// commit latency — from its invocation until 2F+1 replicas have executed
// it — stays within isolationFactor of the unflooded run's, 1.19× and
// 1.10×. On one selector per replica the flood queued ahead of every phase:
// 1.67× and 1.63×. A flood of ten or more such front-ends saturates the
// CPU on rdma-rubin, whose FIFO the selectors do not split, and the
// agreement's CPU work queues behind the reads' (ROADMAP O30).
func TestAgreementIsIsolatedFromAReadFlood(t *testing.T) {
	const puts, floods, floodWindow, isolationFactor = 40, 8, 16, 1.4
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		commit := func(flooded bool) sim.Time {
			d, err := deploy(deploySpec{kind: kind, seed: 1, conns: 1 + floods, readTimeout: 2 * sim.Millisecond}, shard.Config{Shards: 1, PBFT: pbftConfig(4, 1, 0)}, oneHostSet, model.Default())
			if err != nil {
				t.Fatal(err)
			}
			g, writer := d.groups[0], d.fronts[0].Clients[0].ID()
			finished, reads, executed := 0, 0, 0
			var start, total sim.Time
			l := d.ledgers[0]
			for i, rep := range g.Replicas {
				rep.OnExecute(func(seq uint64, batch []pbft.Request) {
					if d.disagreement == nil { // the hook watch installed
						d.disagreement = l.file(i, seq, batch)
					}
					for _, req := range batch {
						if req.Client == writer {
							if executed++; executed == 2*g.Config.F+1 {
								total += d.loop.Now() - start
							}
						}
					}
				})
			}
			read := kvstore.EncodeOp(kvstore.OpGet, "r", "")
			flood := make([]func(), floods)
			for f := range flood {
				flood[f] = func() {
					if finished < puts {
						d.fronts[1+f].InvokeOp(read, func([]byte) { reads++; flood[f]() })
					}
				}
			}
			put := kvstore.EncodeOp(kvstore.OpPut, "p", "v")
			var commitOne func()
			commitOne = func() {
				start, executed = d.loop.Now(), 0
				d.fronts[0].InvokeOp(put, func([]byte) {
					if finished++; finished < puts {
						commitOne()
					}
				})
			}
			d.loop.Post(func() {
				for f := range flood {
					for range floodWindow {
						if flooded {
							flood[f]()
						}
					}
				}
				commitOne()
			})
			d.loop.Run()
			if finished != puts || flooded && reads < 100*puts {
				t.Fatalf("%s: %d of %d puts committed beside %d reads", kind, finished, puts, reads)
			}
			if err := d.check(); err != nil {
				t.Fatal(err)
			}
			return total / puts
		}
		quiet, flooded := commit(false), commit(true)
		t.Logf("%s: a put commits in %v on average, %v beside the flood (%.2f×)", kind, quiet, flooded, float64(flooded)/float64(quiet))
		if float64(flooded) > isolationFactor*float64(quiet) {
			t.Errorf("%s: a put commits in %v beside a read flood, more than %.1f× its %v alone", kind, flooded, isolationFactor, quiet)
		}
	}
}
