// Package shard partitions the keyspace across independent consensus
// groups. Each shard is a full PBFT replica group — its own log,
// checkpoints, state transfer and kvstore partition — and a routing
// front-end (Router) multiplexes client sessions across the groups by
// deterministic hash ranges (kvstore.PartitionKey). Single-key
// operations touch exactly one shard; multi-key operations (scans and
// multi-key read/write transactions) run as scatter-gather reads or as
// two-phase commit layered over consensus: PREPARE and COMMIT/ABORT are
// ordered operations in each participant shard's log, so a shard's vote
// and the transaction's outcome are replicated decisions that survive
// leader crashes — only the protocol's progress, never its safety,
// depends on the router.
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

// Config parameterizes a sharded deployment.
type Config struct {
	// Shards is the number of independent consensus groups the keyspace
	// is hash-partitioned across.
	Shards int
	// PBFT configures every group identically.
	PBFT pbft.Config
}

// DefaultConfig returns a 2-shard deployment of default PBFT groups.
func DefaultConfig() Config {
	return Config{Shards: 2, PBFT: pbft.DefaultConfig()}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("shard: need at least 1 shard, have %d", c.Shards)
	}
	return c.PBFT.Validate()
}

// Deployment is a set of independent PBFT groups sharing one simulation
// loop and one fabric network — shard s's replica i is node "s<s>r<i>"
// on the shared network — plus the routers fronting them.
type Deployment struct {
	Loop     *sim.Loop
	Network  *fabric.Network
	Config   Config
	Kind     transport.Kind
	Clusters []*pbft.Cluster

	routers []*Router
}

// New builds a deployment of cfg.Shards PBFT groups over a shared
// simulated network, each replica running a fresh kvstore.Store — the
// sharded key/value service. Each shard's replicas hold only that shard's
// partition of the keyspace, populated and queried through its own
// group's log. Call Start, then AddRouter.
func New(kind transport.Kind, cfg Config, params model.Params, seed int64) (*Deployment, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	loop := sim.NewLoop(seed)
	d := &Deployment{
		Loop:    loop,
		Network: fabric.New(loop, params),
		Config:  cfg,
		Kind:    kind,
	}
	for s := 0; s < cfg.Shards; s++ {
		cl, err := pbft.NewClusterIn(loop, d.Network, fmt.Sprintf("s%d", s), kind, cfg.PBFT,
			seed+int64(s+1)*pbft.KeySeedStride,
			func(int) pbft.Application { return kvstore.New() })
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", s, err)
		}
		d.Clusters = append(d.Clusters, cl)
	}
	return d, nil
}

// Start brings up every group (listeners plus full peer meshes).
func (d *Deployment) Start() error {
	for s, cl := range d.Clusters {
		if err := cl.Start(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	return nil
}

// SetTracer gives the deployment's world an observability tracer: every
// group, router and mesh on the shared network reads it from there. Call
// before generating traffic; a nil tracer detaches.
func (d *Deployment) SetTracer(t *obs.Tracer) { d.Network.SetTracer(t) }
