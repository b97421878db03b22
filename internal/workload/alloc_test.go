package workload

import (
	"testing"

	"rubin/internal/kvstore"
	"rubin/internal/raceflag"
	"rubin/internal/sim"
)

// replyService answers every operation a fixed delay after its invocation —
// a get with a value, anything else with OK — allocating nothing itself:
// the waiting answers queue in a ring and one bound callback pops them.
type replyService struct {
	loop    *sim.Loop
	waiting sim.Queue[answer]
	fire    func()
}

type answer struct {
	done  func([]byte)
	reply []byte
}

var valueReply, okReply = []byte("a stored value"), []byte("OK")

func newReplyService(loop *sim.Loop) *replyService {
	s := &replyService{loop: loop}
	s.fire = s.answer
	return s
}

func (s *replyService) invoke(_ int, op []byte, done func([]byte)) string {
	reply := okReply
	if kvstore.OpCode(op[0]) == kvstore.OpGet {
		reply = valueReply
	}
	s.waiting.Push(answer{done, reply})
	s.loop.After(10*sim.Microsecond, s.fire)
	return ""
}

func (s *replyService) answer() {
	a := s.waiting.Pop()
	a.done(a.reply)
}

// TestDriverAllocatesPerOpOnlyWhatItKeeps: a completed operation costs the
// driver only what it records — a write's stem and a read's observed stem
// carved from storage a few hundred stems share, and a reply that is no
// written value (this service's get reply) in a marked copy of its own —
// and nothing for its encoding, per completion or per think time: each user
// slot encodes its operations into one buffer of its own, lent to the
// Invoker until done fires, a write's padding is encoded into the driver's
// scratch, the in-flight records and their callbacks are bound once per
// user slot, key names once per key, and the history is sized once, when
// Run starts. Measured as the difference between a run of 2n and one of n
// operations, in closed and in open loop.
func TestDriverAllocatesPerOpOnlyWhatItKeeps(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race runtime's own allocations are not the path's")
	}
	const n = 600
	for _, arrival := range []Arrival{Closed(2, 5*sim.Microsecond), Poisson(10000)} {
		cfg := Config{
			Users: 4, Conns: 2, Keys: NewUniform(4), Arrival: arrival, ValueSize: 32, Seed: 3,
			Mix: Mix{ReadPct: 40, WritePct: 40, DeletePct: 20},
		}
		run := func(ops int) (mallocs float64, marked int) {
			cfg.Ops = ops
			var d *Driver
			mallocs = testing.AllocsPerRun(1, func() {
				loop := sim.NewLoop(1)
				var err error
				if d, err = New(loop, cfg, newReplyService(loop).invoke); err == nil {
					err = d.Run()
				}
				if err != nil {
					t.Fatal(err)
				}
			})
			for _, op := range d.History().Ops() {
				if op.Kind == Read {
					marked++ // "a stored value" is not a padded stem
				}
			}
			return mallocs, marked
		}
		m1, k1 := run(n)
		m2, k2 := run(2 * n)
		perOp, want := (m2-m1)/n, float64(k2-k1)/n
		if perOp < want || perOp > want+0.01 {
			t.Errorf("%s: %.3f allocations per completed operation, want %.3f and at most 0.01 for stem storage", arrival, perOp, want)
		}
	}
}
