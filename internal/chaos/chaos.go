// Package chaos is the deterministic fault-injection and scenario
// orchestration subsystem: it schedules timed fault events against a
// pbft.Cluster on the cluster's simulation loop.
//
// A Scenario is a script of composable fault primitives — host crash and
// restart (with PBFT state transfer on rejoin), network partitions with
// heal, per-link degradation (loss, added latency, jitter), and Byzantine
// replicas — whatever a pbft.Outbox does to a replica's sends (drop,
// delay or rewrite them). Because every event fires at a virtual time on
// the seeded sim.Loop and all randomness flows from the loop's source,
// the same scenario with the same seed produces an identical
// virtual-time trace on every run: fault experiments regress like unit
// tests and benchmark like the fault-free fast path.
//
// Typical use:
//
//	s := chaos.NewScenario("primary-crash-recovery").
//		Crash(10*sim.Millisecond, 0).
//		Restart(120*sim.Millisecond, 0).
//		Partition(200*sim.Millisecond, []int{0, 1}, []int{2, 3}).
//		Heal(260 * sim.Millisecond)
//	sched := chaos.Apply(cluster, s) // offsets count from this moment
//	... drive workload, run the loop ...
//	fmt.Print(sched.TraceString())
package chaos

import (
	"errors"
	"fmt"
	"strings"

	"rubin/internal/fabric"
	"rubin/internal/pbft"
	"rubin/internal/sim"
)

// Action mutates the cluster when its event fires.
type Action func(c *pbft.Cluster) error

// Event is one timed fault in a scenario. At is an offset from the moment
// the scenario is applied, not an absolute virtual time.
type Event struct {
	At   sim.Time
	Name string
	Do   Action
}

// Scenario is an ordered script of timed fault events. Builder methods
// append events and return the scenario for chaining; events with equal
// offsets fire in the order they were added.
type Scenario struct {
	name   string
	events []Event
}

// NewScenario creates an empty scenario.
func NewScenario(name string) *Scenario { return &Scenario{name: name} }

// At appends an arbitrary named action — the escape hatch for faults the
// built-in primitives do not cover.
func (s *Scenario) At(t sim.Time, name string, do Action) *Scenario {
	s.events = append(s.events, Event{At: t, Name: name, Do: do})
	return s
}

// Crash fault-stops replica i at offset t (process crash: all volatile
// state is lost).
func (s *Scenario) Crash(t sim.Time, i int) *Scenario {
	return s.At(t, fmt.Sprintf("crash(r%d)", i), func(c *pbft.Cluster) error {
		c.Crash(i)
		return nil
	})
}

// Restart replaces crashed replica i with a fresh instance at offset t;
// the newcomer rejoins via PBFT state transfer.
func (s *Scenario) Restart(t sim.Time, i int) *Scenario {
	return s.At(t, fmt.Sprintf("restart(r%d)", i), func(c *pbft.Cluster) error {
		return c.Restart(i)
	})
}

// Partition severs links between replica groups at offset t. Frames are
// held and delivered on Heal.
func (s *Scenario) Partition(t sim.Time, groups ...[]int) *Scenario {
	var parts []string
	for _, g := range groups {
		parts = append(parts, fmt.Sprintf("%v", g))
	}
	return s.At(t, "partition"+strings.Join(parts, "|"), func(c *pbft.Cluster) error {
		c.Partition(groups...)
		return nil
	})
}

// Heal restores all replica-to-replica links at offset t.
func (s *Scenario) Heal(t sim.Time) *Scenario {
	return s.At(t, "heal", func(c *pbft.Cluster) error {
		c.Heal()
		return nil
	})
}

// Degrade applies link fault state (loss, latency, jitter, down) to the
// link between replicas i and j at offset t.
func (s *Scenario) Degrade(t sim.Time, i, j int, f fabric.LinkFaults) *Scenario {
	return s.At(t, fmt.Sprintf("degrade(r%d-r%d,loss=%g,lat=%v,jit=%v,down=%t)",
		i, j, f.LossRate, f.ExtraLatency, f.Jitter, f.Down), func(c *pbft.Cluster) error {
		c.DegradeLink(i, j, f)
		return nil
	})
}

// Byzantine installs o as replica i's outbox at offset t; a nil o makes
// the replica correct again.
func (s *Scenario) Byzantine(t sim.Time, i int, o pbft.Outbox) *Scenario {
	name := fmt.Sprintf("byzantine(r%d)", i)
	if o == nil {
		name = fmt.Sprintf("clear(r%d)", i)
	}
	return s.At(t, name, func(c *pbft.Cluster) error {
		c.Replicas[i].SetOutbox(o)
		return nil
	})
}

// TraceEntry records one fired event at its virtual time.
type TraceEntry struct {
	At   sim.Time
	Name string
}

// Schedule is a scenario bound to a cluster: it owns the virtual-time
// trace of fired events and collects action errors.
type Schedule struct {
	cluster  *pbft.Cluster
	scenario *Scenario
	trace    []TraceEntry
	errs     []error
}

// Apply schedules every event of the scenario on the cluster's loop, with
// event offsets counted from the current virtual time. The events fire as
// the caller runs the loop (they do not run the loop themselves).
func Apply(c *pbft.Cluster, s *Scenario) *Schedule {
	sched := &Schedule{cluster: c, scenario: s}
	base := c.Loop.Now()
	for _, ev := range s.events {
		ev := ev
		c.Loop.At(base+ev.At, func() {
			sched.trace = append(sched.trace, TraceEntry{At: c.Loop.Now(), Name: ev.Name})
			if err := ev.Do(c); err != nil {
				sched.errs = append(sched.errs, fmt.Errorf("chaos: %s at %v: %w", ev.Name, ev.At, err))
			}
		})
	}
	return sched
}

// Trace returns the fired events in firing order.
func (sched *Schedule) Trace() []TraceEntry {
	out := make([]TraceEntry, len(sched.trace))
	copy(out, sched.trace)
	return out
}

// TraceString renders the trace one event per line — byte-identical
// across runs of the same scenario and seed.
func (sched *Schedule) TraceString() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s\n", sched.scenario.name)
	for _, e := range sched.trace {
		fmt.Fprintf(&b, "t=%v %s\n", e.At, e.Name)
	}
	return b.String()
}

// Err returns all action errors joined with the cluster's re-attach
// failures (Restart re-dials that could not complete), or nil. Folding in
// Cluster.AttachErr makes asynchronous recovery failures — a restarted
// replica that never got its connections back — visible to scenarios.
func (sched *Schedule) Err() error {
	errs := make([]error, len(sched.errs))
	copy(errs, sched.errs)
	if err := sched.cluster.AttachErr(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
