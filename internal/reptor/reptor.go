// Package reptor implements Consensus-Oriented Parallelization (COP,
// Behl et al., Middleware '15) — the parallelization scheme of the Reptor
// framework the paper integrates RUBIN into. Instead of splitting the BFT
// protocol into functional stages, COP runs K independent PBFT instances
// side by side, each led by a different replica, on pillars of the same
// hosts.
//
// Operations are routed to instances by the keys they touch
// (Client.InvokeOp), so each instance orders a disjoint key partition. Each instance executes its
// batches into a state machine of its own on every node, replies from it
// and checkpoints it at its own sequence numbers: a group is K PBFT
// groups over disjoint keys, and no global order is merged, since no reply
// would wait for one.
package reptor

import (
	"fmt"
	"hash/fnv"

	"rubin/internal/fabric"
	"rubin/internal/model"
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
}

// DefaultConfig returns a 4-instance COP group over the default PBFT
// parameters.
func DefaultConfig() Config {
	return Config{PBFT: pbft.DefaultConfig(), Instances: 4}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Instances < 1 {
		return fmt.Errorf("reptor: need at least one instance")
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
// share the host's CPU cores, NIC and TCP stack or RNIC), each instance
// executing into a state machine of its own on every node.
type Group struct {
	*pbft.Hosts
	Config    Config
	Instances [][]*pbft.Replica    // [instance][replica]
	Apps      [][]pbft.Application // [instance][node]

	placements []*pbft.Placement
	clients    []*Client
}

// NewGroup assembles the deployment on a fresh simulation loop.
// appFactory is called once per (instance, node): instance k's replica on
// node i executes into a state machine of its own, holding only the keys
// routed to k, so each instance's checkpoints digest exactly the state its
// own sequence numbers produced.
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
	// Build the K instances; instance k starts in view k so leadership
	// rotates across replicas (the essence of COP: every replica leads
	// one pipeline).
	for k := 0; k < cfg.Instances; k++ {
		icfg := cfg.PBFT
		icfg.InitialView = uint64(k)
		apps := make([]pbft.Application, cfg.PBFT.N)
		for i := range apps {
			apps[i] = appFactory(i)
		}
		pl, err := hosts.NewPlacement(icfg, k, seed, apps)
		if err != nil {
			return nil, err
		}
		g.Apps = append(g.Apps, apps)
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
