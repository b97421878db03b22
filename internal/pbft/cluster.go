package pbft

import (
	"errors"
	"fmt"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/msgnet"
	"rubin/internal/obs"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// Ports used by cluster wiring.
const (
	PeerPort   = 1000
	ClientPort = 2000
)

// Cluster assembles a full replica group plus clients over a chosen
// transport backend on one simulation loop — the harness used by tests,
// benchmarks and examples. Beyond wiring, it exposes the fault
// orchestration surface the chaos subsystem drives: Crash, Restart,
// Partition, Heal and DegradeLink.
//
// All messaging goes through per-node msgnet meshes; the meshes own the
// peer handles, which survive replica crashes and are re-attached (or
// re-dialed, with failures recorded — see AttachErr) on Restart.
type Cluster struct {
	Loop     *sim.Loop
	Network  *fabric.Network
	Config   Config
	Kind     transport.Kind
	Replicas []*Replica
	Meshes   []*msgnet.Mesh
	Apps     []Application

	nodes      []*fabric.Node
	prefix     string // node-name prefix ("" standalone, "s3" for shard 3)
	appFactory func(i int) Application
	keyrings   []*auth.Keyring

	// Peer bookkeeping so a restarted replica can be re-attached to the
	// surviving msgnet peers (and dead ones re-dialed).
	peerLinks     [][]*msgnet.Peer // peerLinks[i][j]: outbound i -> j
	inboundPeer   [][]*msgnet.Peer // peer-initiated conns accepted by i
	inboundClient [][]*msgnet.Peer // client conns accepted by i

	// attachErrs collects re-attach/re-dial failures from Restart; they
	// surface through AttachErr (and chaos.Schedule.Err).
	attachErrs []error

	clientNodes  []*fabric.Node
	clientMeshes []*msgnet.Mesh
	Clients      []*Client

	// OnRestart, if set, is invoked after Restart wires up a fresh
	// replica — the place to re-attach OnExecute/OnViewChange hooks.
	OnRestart func(i int, rep *Replica)

	tracer *obs.Tracer
}

// SetTracer attaches an observability tracer to every current replica
// and mesh, and to ones created later (AddClient meshes, Restart
// replicas). Call before generating traffic; a nil tracer detaches.
func (c *Cluster) SetTracer(t *obs.Tracer) {
	c.tracer = t
	for _, rep := range c.Replicas {
		rep.SetTracer(t)
	}
	for _, mesh := range c.Meshes {
		mesh.SetTracer(t)
	}
	for _, mesh := range c.clientMeshes {
		mesh.SetTracer(t)
	}
}

// NewCluster builds N replica nodes (full mesh), opens msgnet meshes of
// the given transport kind, creates replicas running app instances from
// the factory, and interconnects all replica pairs. Call Start to
// complete connection setup, then AddClient.
func NewCluster(kind transport.Kind, cfg Config, params model.Params, seed int64, appFactory func(i int) Application) (*Cluster, error) {
	loop := sim.NewLoop(seed)
	return NewClusterIn(loop, fabric.New(loop, params), "", kind, cfg, seed, appFactory)
}

// NewClusterIn builds a replica group on an existing simulation loop and
// fabric network, so several independent groups — the shard layer's
// deployment — can share one simulated world. Node names are prefixed
// (replica i of prefix "s2" is node "s2r1") to keep groups disjoint on
// the shared network, and keySeed must differ between co-hosted groups
// so their keyrings do.
func NewClusterIn(loop *sim.Loop, nw *fabric.Network, prefix string, kind transport.Kind, cfg Config, keySeed int64, appFactory func(i int) Application) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		Loop: loop, Network: nw, Config: cfg, Kind: kind,
		prefix:        prefix,
		appFactory:    appFactory,
		peerLinks:     make([][]*msgnet.Peer, cfg.N),
		inboundPeer:   make([][]*msgnet.Peer, cfg.N),
		inboundClient: make([][]*msgnet.Peer, cfg.N),
	}

	opts := msgnet.DefaultOptions()
	c.keyrings = auth.GenerateKeyrings(cfg.N, uint64(keySeed)+1)
	for i := 0; i < cfg.N; i++ {
		node := nw.AddNode(fmt.Sprintf("%sr%d", prefix, i))
		mesh, err := msgnet.NewMesh(kind, node, opts)
		if err != nil {
			return nil, err
		}
		app := appFactory(i)
		rep, err := NewReplica(uint32(i), cfg, node, c.keyrings[i], app)
		if err != nil {
			return nil, err
		}
		c.nodes = append(c.nodes, node)
		c.Meshes = append(c.Meshes, mesh)
		c.Replicas = append(c.Replicas, rep)
		c.Apps = append(c.Apps, app)
		c.peerLinks[i] = make([]*msgnet.Peer, cfg.N)
	}
	// Full mesh links.
	for i := 0; i < cfg.N; i++ {
		for j := i + 1; j < cfg.N; j++ {
			nw.Connect(c.nodes[i], c.nodes[j])
		}
	}
	return c, nil
}

// Start listens on every replica and dials the full connection mesh,
// running the loop until setup completes.
func (c *Cluster) Start() error {
	var setupErr error
	for i, mesh := range c.Meshes {
		i := i
		if err := mesh.Listen(PeerPort, func(p *msgnet.Peer) {
			c.inboundPeer[i] = append(c.inboundPeer[i], p)
			c.Replicas[i].AttachInbound(p)
		}); err != nil {
			return err
		}
		if err := mesh.Listen(ClientPort, func(p *msgnet.Peer) {
			c.inboundClient[i] = append(c.inboundClient[i], p)
			c.Replicas[i].HandleClientConn(p)
		}); err != nil {
			return err
		}
	}
	dials := 0
	for i := range c.Meshes {
		for j := range c.Meshes {
			if i == j {
				continue
			}
			i, j := i, j
			c.Loop.Post(func() {
				c.Meshes[i].Dial(c.nodes[j], PeerPort, func(p *msgnet.Peer, err error) {
					if err != nil {
						setupErr = fmt.Errorf("dial r%d->r%d: %w", i, j, err)
						return
					}
					c.peerLinks[i][j] = p
					c.Replicas[i].AttachPeer(uint32(j), p)
					dials++
				})
			})
		}
	}
	c.Loop.Run()
	if setupErr != nil {
		return setupErr
	}
	want := c.Config.N * (c.Config.N - 1)
	if dials != want {
		return fmt.Errorf("pbft: only %d of %d peer connections established", dials, want)
	}
	return nil
}

// AddClient creates a client on its own node, links it to every replica
// and dials the client ports. Must run after Start.
func (c *Cluster) AddClient() (*Client, error) {
	id := uint32(100 + len(c.Clients))
	node := c.Network.AddNode(fmt.Sprintf("%sclient%d", c.prefix, id))
	for i := 0; i < c.Config.N; i++ {
		c.Network.Connect(node, c.nodes[i])
	}
	mesh, err := msgnet.NewMesh(c.Kind, node, msgnet.DefaultOptions())
	if err != nil {
		return nil, err
	}
	mesh.SetTracer(c.tracer)
	cl := NewClient(id, c.Config.F)
	var dialErr error
	dials := 0
	for i := 0; i < c.Config.N; i++ {
		i := i
		c.Loop.Post(func() {
			mesh.Dial(c.nodes[i], ClientPort, func(p *msgnet.Peer, err error) {
				if err != nil {
					dialErr = err
					return
				}
				cl.AttachReplica(uint32(i), p)
				dials++
			})
		})
	}
	c.Loop.Run()
	if dialErr != nil {
		return nil, dialErr
	}
	if dials != c.Config.N {
		return nil, fmt.Errorf("pbft: client connected to %d of %d replicas", dials, c.Config.N)
	}
	c.clientNodes = append(c.clientNodes, node)
	c.clientMeshes = append(c.clientMeshes, mesh)
	c.Clients = append(c.Clients, cl)
	return cl, nil
}

// RunFor advances the simulation by d.
func (c *Cluster) RunFor(d sim.Time) { c.Loop.RunUntil(c.Loop.Now() + d) }

// SendFaults sums the surfaced delivery failures across the current
// replica instances (a restarted replica starts a fresh counter).
func (c *Cluster) SendFaults() uint64 {
	var n uint64
	for _, rep := range c.Replicas {
		n += rep.SendFaults()
	}
	return n
}

// PeakQueueBytes returns the deepest msgnet send queue observed on any
// replica mesh — the queue-depth metric experiment E7 reports.
func (c *Cluster) PeakQueueBytes() int {
	peak := 0
	for _, mesh := range c.Meshes {
		if d := mesh.PeakQueueBytes(); d > peak {
			peak = d
		}
	}
	return peak
}

// ---------------------------------------------------------------------------
// Fault orchestration (driven by internal/chaos)
// ---------------------------------------------------------------------------

// Crash fault-stops replica i: the process sends nothing, hears nothing
// and fires no timers from this instant on. All volatile state is lost;
// recovery goes through Restart.
func (c *Cluster) Crash(i int) { c.Replicas[i].Stop() }

// Restart replaces a crashed replica with a fresh instance — empty log,
// empty application state, view 0 — attached to the surviving msgnet
// peers, then starts state transfer so it fetches the group's latest
// stable checkpoint and rejoins. Outbound peers whose connection died
// while the replica was down are re-dialed through the mesh; re-dial
// failures are recorded and surface through AttachErr.
func (c *Cluster) Restart(i int) error {
	// Silence the old instance even if Crash was never called: two live
	// replicas sharing identity and keyring would equivocate.
	c.Replicas[i].Stop()
	app := c.appFactory(i)
	rep, err := NewReplica(uint32(i), c.Config, c.nodes[i], c.keyrings[i], app)
	if err != nil {
		return err
	}
	c.Replicas[i] = rep
	c.Apps[i] = app
	rep.SetTracer(c.tracer)
	for j, p := range c.peerLinks[i] {
		if j == i {
			continue
		}
		if p != nil && !p.Closed() {
			rep.AttachPeer(uint32(j), p)
			continue
		}
		// The outbound link died while the replica was down: re-dial it.
		// The dial completes on the loop; failures are recorded for
		// AttachErr so chaos scenarios see them.
		i, j := i, j
		c.Meshes[i].Dial(c.nodes[j], PeerPort, func(p *msgnet.Peer, err error) {
			if err != nil {
				c.attachErrs = append(c.attachErrs, fmt.Errorf("pbft: restart r%d: re-dial r%d: %w", i, j, err))
				return
			}
			c.peerLinks[i][j] = p
			c.Replicas[i].AttachPeer(uint32(j), p)
		})
	}
	for _, p := range c.inboundPeer[i] {
		if !p.Closed() {
			rep.AttachInbound(p)
		}
	}
	for _, p := range c.inboundClient[i] {
		if !p.Closed() {
			rep.HandleClientConn(p)
		}
	}
	if c.OnRestart != nil {
		c.OnRestart(i, rep)
	}
	rep.requestStateTransfer()
	return nil
}

// AttachErr returns every re-attach failure recorded by Restart so far,
// joined — nil when all re-attaches succeeded. chaos.Schedule.Err folds
// this in, making failed recoveries visible to scenarios.
func (c *Cluster) AttachErr() error { return errors.Join(c.attachErrs...) }

// ReplicaLink returns the fabric link between replicas i and j.
func (c *Cluster) ReplicaLink(i, j int) *fabric.Link {
	return c.Network.Link(c.nodes[i], c.nodes[j])
}

// Partition installs the requested topology among the listed replicas:
// links between replicas in different groups go down, links within a
// group come (back) up — so successive Partition calls over the same
// replicas replace each other rather than accumulate. Links touching a
// replica not listed in any group are left untouched (so independent
// DegradeLink faults survive), as are client links. Severed links hold
// frames and deliver them on Heal — a partition is an unbounded message
// delay, the standard asynchronous-network model.
func (c *Cluster) Partition(groups ...[]int) {
	grp := make(map[int]int)
	for g, members := range groups {
		for _, i := range members {
			grp[i] = g
		}
	}
	for i := 0; i < c.Config.N; i++ {
		for j := i + 1; j < c.Config.N; j++ {
			gi, oki := grp[i]
			gj, okj := grp[j]
			if oki && okj {
				c.ReplicaLink(i, j).SetDown(gi != gj)
			}
		}
	}
}

// Heal restores every replica-to-replica link — including ones severed
// via DegradeLink — releasing held frames in their original order.
func (c *Cluster) Heal() {
	for i := 0; i < c.Config.N; i++ {
		for j := i + 1; j < c.Config.N; j++ {
			c.ReplicaLink(i, j).SetDown(false)
		}
	}
}

// DegradeLink applies fault state (loss, extra latency, jitter, down) to
// the link between replicas i and j.
func (c *Cluster) DegradeLink(i, j int, f fabric.LinkFaults) {
	c.ReplicaLink(i, j).SetFaults(f)
}
