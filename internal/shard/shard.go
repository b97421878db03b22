// Package shard partitions the keyspace across independent consensus
// groups. Each group is a full PBFT replica group — its own log,
// checkpoints, state transfer and kvstore partition — and a routing
// front-end (Router) multiplexes client sessions across the groups by
// deterministic hash ranges (kvstore.PartitionKey). Single-key
// operations touch exactly one group; multi-key operations (scans and
// multi-key read/write transactions) run as scatter-gather reads or as
// two-phase commit layered over consensus: PREPARE and COMMIT/ABORT are
// ordered operations in each participant group's log, so a group's vote
// and the transaction's outcome are replicated decisions that survive
// leader crashes — only the protocol's progress, never its safety,
// depends on the router.
//
// The groups are placed one of two ways. New gives each its own hosts:
// a sharded service. NewCOP puts them side by side on one set of hosts,
// group k on every host's pillar k and led first by replica k — Reptor's
// Consensus-Oriented Parallelization (COP, Behl et al., Middleware '15),
// where every replica leads one pipeline.
package shard

import (
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/obs"
	"rubin/internal/pbft"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// Config parameterizes a partitioned deployment.
type Config struct {
	// Shards is the number of independent consensus groups the keyspace
	// is hash-partitioned across: shards, or a COP group's instances.
	Shards int
	// PBFT configures every group identically.
	PBFT pbft.Config
	// App makes replica i's state machine in every group, and again when a
	// restart replaces replica i; nil gives each a fresh kvstore.Store, which
	// holds only its group's partition of the keyspace.
	App func(i int) pbft.Application
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("shard: need at least 1 shard, have %d", c.Shards)
	}
	return c.PBFT.Validate()
}

// keySeedStride separates the keyring seeds of the groups sharing a
// network: group g is keyed from seed + g·stride. Any constant larger than
// zero works; a prime just makes collisions with unrelated seed
// arithmetic unlikely.
const keySeedStride = 7919

// Deployment is a set of independent PBFT groups sharing one simulation
// loop and one fabric network, plus the routers fronting them.
type Deployment struct {
	Loop     *sim.Loop
	Network  *fabric.Network
	Config   Config
	Kind     transport.Kind
	Clusters []*pbft.Cluster

	routers []*Router
}

// New builds a sharded deployment: cfg.Shards PBFT groups, each on hosts
// of its own — shard s's replica i is node "s<s>r<i>" on the shared
// network — and each replica executing into cfg.App's state machine. Call
// Start, then AddRouter.
func New(kind transport.Kind, cfg Config, params model.Params, seed int64) (*Deployment, error) {
	return build(kind, cfg, params, seed, false)
}

// NewCOP builds a COP group: cfg.Shards PBFT groups on one set of N hosts
// named "r<i>", group k on every host's pillar k (a peer and a client
// msgnet mesh, each with its selector on an application thread of its own;
// the pillars share the host's CPU cores, NIC and TCP stack or RNIC; see
// pbft.Hosts), starting in view k so that
// every replica leads one group. Call Start, then AddRouter.
func NewCOP(kind transport.Kind, cfg Config, params model.Params, seed int64) (*Deployment, error) {
	return build(kind, cfg, params, seed, true)
}

// build assembles the groups in order, group g keyed from
// seed + g·keySeedStride: on hosts of their own, or co-located on one
// host set's pillars.
func build(kind transport.Kind, cfg Config, params model.Params, seed int64, colocated bool) (*Deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	loop := sim.NewLoop(seed)
	d := &Deployment{Loop: loop, Network: fabric.New(loop, params), Config: cfg, Kind: kind}
	app := cfg.App
	if app == nil {
		app = func(int) pbft.Application { return kvstore.New() }
	}
	var hosts *pbft.Hosts
	if colocated {
		h, err := pbft.NewHosts(loop, d.Network, kind, "", cfg.PBFT.N, cfg.Shards)
		if err != nil {
			return nil, err
		}
		hosts = h
	}
	for g := 0; g < cfg.Shards; g++ {
		gcfg, pillar := cfg.PBFT, g
		if colocated {
			gcfg.InitialView = uint64(g)
		} else {
			h, err := pbft.NewHosts(loop, d.Network, kind, fmt.Sprintf("s%d", g), cfg.PBFT.N, 1)
			if err != nil {
				return nil, fmt.Errorf("shard %d: %w", g, err)
			}
			hosts, pillar = h, 0
		}
		cl, err := hosts.Place(gcfg, pillar, seed+int64(g)*keySeedStride, app)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", g, err)
		}
		d.Clusters = append(d.Clusters, cl)
	}
	return d, nil
}

// Start brings up every group (listeners plus full peer meshes). The
// groups on one set of hosts all post their dials before the loop runs
// once; groups on hosts of their own come up one after another.
func (d *Deployment) Start() error {
	for g, cl := range d.Clusters {
		if err := cl.Listen(); err != nil {
			return fmt.Errorf("shard %d: %w", g, err)
		}
		if g+1 < len(d.Clusters) && d.Clusters[g+1].Hosts == cl.Hosts {
			continue
		}
		if err := cl.Await(); err != nil {
			return fmt.Errorf("shard %d: %w", g, err)
		}
	}
	return nil
}

// SetTracer gives the deployment's world an observability tracer: every
// group, router and mesh on the shared network reads it from there. Call
// before generating traffic; a nil tracer detaches.
func (d *Deployment) SetTracer(t *obs.Tracer) { d.Network.SetTracer(t) }
