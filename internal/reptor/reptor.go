// Package reptor implements Consensus-Oriented Parallelization (COP,
// Behl et al., Middleware '15) — the parallelization scheme of the Reptor
// framework the paper integrates RUBIN into. Instead of splitting the BFT
// protocol into functional stages, COP runs K independent PBFT instances
// side by side (each led by a different replica) and deterministically
// merges their committed batches into one global total order.
//
// Requests are routed to instances by operation hash, so each instance
// orders a disjoint partition; the executor interleaves instance rounds
// round-robin (global slot = (seq-1)*K + instance) and fills holes left by
// idle instances with leader heartbeats (empty batches).
package reptor

import (
	"fmt"
	"hash/fnv"
	"slices"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/obs"
	"rubin/internal/pbft"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// Config tunes a COP group.
type Config struct {
	// PBFT is the per-instance protocol configuration.
	PBFT pbft.Config
	// Instances is K, the number of parallel consensus pipelines.
	Instances int
	// HeartbeatDelay is how long the executor waits on a hole before
	// asking the lagging instance's leader for empty batches — the
	// floor of the adaptive backoff. Real traffic on an instance resets
	// its delay to this value.
	HeartbeatDelay sim.Time
	// HeartbeatMax caps the exponential backoff: each heartbeat round an
	// instance stays idle doubles its delay up to this ceiling, so a cold
	// partition is probed aggressively at first and cheaply once it is
	// clearly idle.
	HeartbeatMax sim.Time
}

// DefaultConfig returns a 4-instance COP group over the default PBFT
// parameters.
func DefaultConfig() Config {
	return Config{
		PBFT:           pbft.DefaultConfig(),
		Instances:      4,
		HeartbeatDelay: 100 * sim.Microsecond,
		HeartbeatMax:   4 * sim.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Instances < 1 {
		return fmt.Errorf("reptor: need at least one instance")
	}
	if c.HeartbeatDelay < 1 || c.HeartbeatMax < c.HeartbeatDelay {
		return fmt.Errorf("reptor: need 0 < HeartbeatDelay <= HeartbeatMax, got %v/%v",
			c.HeartbeatDelay, c.HeartbeatMax)
	}
	return c.PBFT.Validate()
}

// Route assigns an operation to an instance by FNV-1a hash, partitioning
// the request space.
func (c Config) Route(op []byte) int {
	h := fnv.New32a()
	_, _ = h.Write(op)
	return routeSum(h.Sum32(), c.Instances)
}

// routeSum maps a 32-bit hash to an instance. The modulo is taken
// unsigned: converted to a 32-bit int first, half of all sums would go
// negative and index out of range.
func routeSum(sum uint32, instances int) int { return int(sum % uint32(instances)) }

// Group is a running COP deployment: N hosts, K PBFT instances placed
// side by side on them, instance k on each host's pillar k (a msgnet mesh
// whose selector runs on the host's application thread k; the pillars
// share the host's CPU cores, NIC and TCP stack or RNIC), one merged
// executor per node.
type Group struct {
	*pbft.Hosts
	Config    Config
	Instances [][]*pbft.Replica // [instance][replica]
	Executors []*Executor       // one per node
	Apps      []pbft.Application

	placements []*pbft.Placement
	clients    []*Client
}

// NewGroup assembles the deployment on a fresh simulation loop.
// appFactory provides the node-local state machine shared by all
// instances on that node (instances order disjoint partitions, so
// instance-local execution order is safe).
func NewGroup(kind transport.Kind, cfg Config, params model.Params, seed int64, appFactory func(node int) pbft.Application) (*Group, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	loop := sim.NewLoop(seed)
	hosts, err := pbft.NewHosts(loop, fabric.New(loop, params), kind, "", cfg.PBFT.N, cfg.Instances)
	if err != nil {
		return nil, err
	}
	g := &Group{Hosts: hosts, Config: cfg}
	// Executors merge the instances' committed batches per node.
	for i := 0; i < cfg.PBFT.N; i++ {
		g.Apps = append(g.Apps, appFactory(i))
		g.Executors = append(g.Executors, newExecutor(g, i))
	}
	// Build the K instances; instance k starts in view k so leadership
	// rotates across replicas (the essence of COP: every replica leads
	// one pipeline).
	for k := 0; k < cfg.Instances; k++ {
		icfg := cfg.PBFT
		icfg.InitialView = uint64(k)
		pl, err := hosts.NewPlacement(icfg, k, seed, g.Apps)
		if err != nil {
			return nil, err
		}
		for i, rep := range pl.Replicas {
			rep.OnExecute(func(seq uint64, batch []pbft.Request) {
				g.Executors[i].deliver(k, seq, batch)
			})
			rep.OnCheckpointAdopt(func(seq uint64) {
				g.Executors[i].subsume(k, seq)
			})
		}
		g.placements = append(g.placements, pl)
		g.Instances = append(g.Instances, pl.Replicas)
	}
	return g, nil
}

// Start wires every instance's connection mesh: all K groups listen and
// post their dials, then the loop runs once.
func (g *Group) Start() error {
	for _, pl := range g.placements {
		if err := pl.Start(); err != nil {
			return err
		}
	}
	return g.Await()
}

// GlobalOrder returns the merged global log of a node's executor as
// request identities, for cross-replica comparison in tests.
func (g *Group) GlobalOrder(node int) []pbft.RequestID { return g.Executors[node].order }

// Executor merges instance-local commits into the global total order on
// one node.
type Executor struct {
	group *Group
	node  int

	// ready[k] holds batches committed by instance k, keyed by
	// instance-local sequence. A batch is lent by OnExecute, its ops only
	// until the hook returns, so the merge reads its request ids alone.
	ready []map[uint64][]pbft.Request
	// round is the next instance-local sequence to merge.
	round uint64
	// cursor is the next instance within the current round.
	cursor int

	// order is the merged log as request identities, so the merge path
	// formats nothing.
	order []pbft.RequestID
	slots uint64
	// hbArmed/hbRound/hbCursor/hbTimer track the one in-flight heartbeat
	// timer and the hole it was armed for, so a timer backed off for a
	// stale hole can be cancelled the moment the merge moves on to a
	// different one instead of blocking its (possibly much shorter) arm.
	hbArmed  bool
	hbRound  uint64
	hbCursor int
	hbTimer  sim.Timer
	// hbDelay is the per-instance adaptive heartbeat delay: reset to
	// Config.HeartbeatDelay by real traffic on the instance, doubled (up
	// to Config.HeartbeatMax) each heartbeat round the instance sits idle.
	hbDelay  []sim.Time
	hbRounds uint64
	// subsumed[k] is the highest instance-k sequence folded into an
	// adopted state-transfer checkpoint: those rounds will never be
	// delivered through OnExecute and the merge must not wait for them.
	// subsumedSlots counts the global slots skipped that way: a node with
	// a non-zero count has a gap in its local view of the merged order.
	subsumed      []uint64
	subsumedSlots uint64

	// Cells of the node's stat table: hbSlots is how many empty slots this
	// executor's heartbeat fills requested (with batched hole-filling more
	// than it fired rounds), peakBacklog the largest Backlog observed — the
	// merge-pressure high watermark E8/E9 report.
	hbSlots, peakBacklog *uint64
	// Observability: while the group's world has a tracer, deliverAt
	// remembers when each buffered batch committed so the merge can report
	// how long the barrier sat on it (obs.MergeWait + "merge-wait" spans).
	deliverAt map[slotKey]sim.Time
}

// slotKey identifies one instance-local sequence in the merge buffer.
type slotKey struct {
	instance int
	seq      uint64
}

func newExecutor(g *Group, node int) *Executor {
	host := g.Node(node)
	e := &Executor{group: g, node: node, round: 1,
		hbSlots:     host.Counter("reptor.heartbeat_slots"),
		peakBacklog: host.Peak("reptor.peak_backlog"),
	}
	for k := 0; k < g.Config.Instances; k++ {
		e.ready = append(e.ready, make(map[uint64][]pbft.Request))
		e.hbDelay = append(e.hbDelay, g.Config.HeartbeatDelay)
		e.subsumed = append(e.subsumed, 0)
	}
	host.Gauge("executor_backlog", fabric.StatLevel, func() float64 { return float64(e.Backlog()) })
	// The largest adaptive delay any instance is backed off to right now.
	host.Gauge("reptor.heartbeat_delay_us", fabric.StatPeak, func() float64 { return slices.Max(e.hbDelay).Micros() })
	return e
}

// Backlog returns the number of committed-but-unmerged batches buffered
// by this executor — committed work the merge barrier is sitting on.
func (e *Executor) Backlog() int {
	n := 0
	for k := range e.ready {
		n += len(e.ready[k])
	}
	return n
}

func (e *Executor) deliver(instance int, seq uint64, batch []pbft.Request) {
	// A delivery behind the merge cursor can only follow a subsumed-round
	// skip (normal execution is strictly in-order per instance); buffering
	// it would leave a permanently unmergeable entry behind.
	if seq < e.round || (seq == e.round && instance < e.cursor) {
		return
	}
	if len(batch) > 0 {
		// Real traffic: the instance's leader is alive and proposing, so
		// probe future holes at full speed again.
		e.hbDelay[instance] = e.group.Config.HeartbeatDelay
	}
	e.ready[instance][seq] = batch
	if b := uint64(e.Backlog()); b > *e.peakBacklog {
		*e.peakBacklog = b
	}
	if e.group.Network.Tracer() != nil {
		if e.deliverAt == nil {
			e.deliverAt = make(map[slotKey]sim.Time)
		}
		e.deliverAt[slotKey{instance, seq}] = e.group.Loop.Now()
	}
	e.drain()
}

// subsume records that instance's sequences up to seq were folded into a
// state-transfer checkpoint this node adopted: the merge stops waiting
// for them. The affected global slots advance without contributing order
// entries — the batches' effects are inside the adopted application
// state, their contents unrecoverable here — and SubsumedSlots exposes
// how many, so a node that lived through a transfer is never silently
// wedged and never silently complete either.
func (e *Executor) subsume(instance int, seq uint64) {
	if seq > e.subsumed[instance] {
		e.subsumed[instance] = seq
	}
	for s := range e.ready[instance] {
		if s <= seq {
			delete(e.ready[instance], s)
			delete(e.deliverAt, slotKey{instance, s})
		}
	}
	e.drain()
}

// drain merges committed batches in strict (round, instance) order.
func (e *Executor) drain() {
	for {
		batch, ok := e.ready[e.cursor][e.round]
		if !ok {
			if e.round <= e.subsumed[e.cursor] {
				// Skipped by state transfer: advance the slot without
				// order entries (see subsume).
				e.subsumedSlots++
				e.slots++
				e.advanceCursor()
				continue
			}
			e.armHeartbeat()
			return
		}
		delete(e.ready[e.cursor], e.round)
		if t := e.group.Network.Tracer(); t != nil {
			if at, ok := e.deliverAt[slotKey{e.cursor, e.round}]; ok {
				delete(e.deliverAt, slotKey{e.cursor, e.round})
				now := e.group.Loop.Now()
				t.Record(obs.MergeWait, now-at)
				if now > at {
					t.Span("reptor", "merge-wait",
						fmt.Sprintf("%s/i%d", e.group.Node(e.node).Name(), e.cursor), "", at, now)
				}
			}
		}
		for _, req := range batch {
			e.order = append(e.order, req.ID())
		}
		e.slots++
		e.advanceCursor()
	}
}

func (e *Executor) advanceCursor() {
	e.cursor++
	if e.cursor == e.group.Config.Instances {
		e.cursor = 0
		e.round++
	}
}

// maxReadyRound returns the highest instance-local sequence committed by
// any instance but not yet merged — how far ahead of the barrier the
// group has already agreed.
func (e *Executor) maxReadyRound() uint64 {
	var max uint64
	for k := range e.ready {
		for seq := range e.ready[k] {
			if seq > max {
				max = seq
			}
		}
	}
	return max
}

// armHeartbeat schedules a one-shot nudge: if the hole at (round, cursor)
// persists for the instance's current adaptive delay and this node leads
// the lagging instance, fill the whole contiguous run of holes — every
// round up to the furthest committed-but-unmerged sequence — with one
// ranged heartbeat proposal instead of one full agreement per slot.
func (e *Executor) armHeartbeat() {
	if e.hbArmed {
		if e.hbRound == e.round && e.hbCursor == e.cursor {
			return // already armed for this very hole
		}
		// Armed for a hole the merge has moved past: a timer backed off
		// to HeartbeatMax for an idle instance must not delay the fresh
		// (floor-delay) probe of the hole now at the cursor.
		e.hbTimer.Cancel()
		e.hbArmed = false
	}
	// Only arm when some other instance has already moved past this
	// round — otherwise the group is simply idle. Any buffered entry is
	// at or beyond the merge cursor by construction (the merge consumes
	// every earlier slot before advancing), so the first non-empty
	// buffer decides; the full maxReadyRound scan is deferred to the
	// fired timer, off the per-delivery hot path.
	anyAhead := false
	for k := range e.ready {
		if len(e.ready[k]) > 0 {
			anyAhead = true
			break
		}
	}
	if !anyAhead {
		return
	}
	e.hbArmed = true
	instance, round := e.cursor, e.round
	e.hbRound, e.hbCursor = round, instance
	e.hbTimer = e.group.Loop.After(e.hbDelay[instance], func() {
		e.hbArmed = false
		if e.round == round && e.cursor == instance {
			// The hole survived the whole delay: the instance is idle.
			// Fill up to the furthest round any instance has committed,
			// and back off in case it stays idle.
			upTo := e.maxReadyRound()
			if upTo < round {
				upTo = round
			}
			rep := e.group.Instances[instance][e.node]
			if n := rep.ProposeHeartbeat(upTo); n > 0 {
				e.hbRounds++
				*e.hbSlots += uint64(n)
			}
			if next := 2 * e.hbDelay[instance]; next <= e.group.Config.HeartbeatMax {
				e.hbDelay[instance] = next
			} else {
				e.hbDelay[instance] = e.group.Config.HeartbeatMax
			}
		}
		// Re-check: fills may have happened, or the hole persists and
		// needs re-arming.
		e.drain()
	})
}
