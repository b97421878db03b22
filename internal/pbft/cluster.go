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

// Every deployment in this repository — a plain PBFT cluster, or K replica
// groups over disjoint keys placed either on one set of hosts (a COP group)
// or on hosts of their own (shards) — is assembled from the three parts in
// this file: Hosts (named machines with msgnet meshes), Clusters (a replica
// group on one pillar of a Hosts) and FrontEnds (a client-side machine
// holding one Client per cluster it talks to). The node names, ports,
// client identities and the order dials are posted in are fixed here and
// nowhere else, so the same wiring sits above both transports in every
// experiment.

// Ports of pillar 0; a cluster on pillar k listens portStride·k above
// them, so K clusters can share one set of hosts.
const (
	PeerPort   = 1000
	ClientPort = 2000
	portStride = 10
)

// clientIDStride separates the PBFT identities of one front-end's
// clients. Request keys are (client, timestamp) pairs and every Client
// counts timestamps independently, so clients sharing an identity would
// make unrelated operations indistinguishable in reply caches, the
// agreement ledgers and the shared trace. The stride bounds a deployment at
// 1024 front-ends before identities could collide.
const clientIDStride = 1024

// Hosts is the machine layer of a deployment: N fabric nodes named
// <prefix>r<i>, fully meshed by links, each with two msgnet meshes per
// pillar. A pillar is what COP gives each of its groups; each of its two
// meshes is a transport stack with a selector of its own on an application
// thread of its own, on the node's one TCP stack or RNIC. The peer mesh
// carries agreement between replicas, the client mesh requests and replies,
// so a flood of client traffic never queues ahead of a PREPARE (Aardvark's
// separate queues, Clement et al., NSDI '09). Of K pillars, pillar k's peer
// selector runs on Thread(k) and its client selector on Thread(K+k). The
// meshes own the peer handles, which survive replica crashes.
type Hosts struct {
	Loop    *sim.Loop
	Network *fabric.Network
	Kind    transport.Kind
	Meshes  []*msgnet.Mesh // host i's peer mesh of pillar 0

	pillars [][]*msgnet.Mesh // pillars[k][i]: host i's peer mesh of pillar k
	clients [][]*msgnet.Mesh // clients[k][i]: host i's client mesh of pillar k

	nodes  []*fabric.Node // host i's node: what the group's counters fold over
	prefix string
	// Peer dials posted by Listen and not yet completed by Await.
	posted, dialed int
	dialErr        error
}

// NewHosts adds n nodes to the network, each with the given number of
// pillars: one for a replica group on hosts of its own, K for a COP group,
// whose group k serves on pillar k. Deployments sharing a network (the
// shards of a sharded service) keep their nodes disjoint by prefix.
func NewHosts(loop *sim.Loop, nw *fabric.Network, kind transport.Kind, prefix string, n, pillars int) (*Hosts, error) {
	h := &Hosts{Loop: loop, Network: nw, Kind: kind, prefix: prefix,
		pillars: make([][]*msgnet.Mesh, pillars), clients: make([][]*msgnet.Mesh, pillars)}
	for i := 0; i < n; i++ {
		h.nodes = append(h.nodes, nw.AddNode(fmt.Sprintf("%sr%d", prefix, i)))
		meshes, err := msgnet.NewMeshes(kind, h.nodes[i], msgnet.DefaultOptions(), 2*pillars)
		if err != nil {
			return nil, err
		}
		for k := range pillars {
			h.pillars[k] = append(h.pillars[k], meshes[k])
			h.clients[k] = append(h.clients[k], meshes[pillars+k])
		}
	}
	h.Meshes = h.pillars[0]
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			nw.Connect(h.Node(i), h.Node(j))
		}
	}
	return h, nil
}

// Node returns host i's fabric node.
func (h *Hosts) Node(i int) *fabric.Node { return h.nodes[i] }

// SetTracer gives the hosts' world an observability tracer: every mesh,
// replica and front-end on the network reads it from there, so
// ones created later (AddClient meshes, Restart replicas) are traced too.
// Call before generating traffic; a nil tracer detaches.
func (h *Hosts) SetTracer(t *obs.Tracer) { h.Network.SetTracer(t) }

// PeakQueueBytes returns the deepest msgnet send queue observed on any
// host mesh.
func (h *Hosts) PeakQueueBytes() int {
	return int(fabric.Fold(h.nodes...)["msgnet.peak_queue_bytes"])
}

// Await runs the loop until every dial posted by Cluster.Listen has
// completed — once, however many clusters on the hosts listened — and
// reports the first failure.
func (h *Hosts) Await() error {
	h.Loop.Run()
	if h.dialErr != nil {
		return h.dialErr
	}
	if h.dialed != h.posted {
		return fmt.Errorf("pbft: only %d of %d peer connections established", h.dialed, h.posted)
	}
	return nil
}

// Cluster is one replica group on one pillar of a Hosts — replica i on
// host i — with its single-client front-ends and the connection
// bookkeeping that lets a restarted replica be re-attached to the
// surviving msgnet peers (and dead ones re-dialed). NewCluster builds one
// on hosts of its own, the harness used by tests, benchmarks and
// examples; the shard layer places several on shared or separate hosts.
// Beyond wiring, it exposes the fault orchestration surface the chaos
// subsystem drives: Crash, Restart, Partition, Heal and ReplicaLink,
// whose faults a scenario sets directly.
type Cluster struct {
	*Hosts
	Config   Config
	Replicas []*Replica
	Apps     []Application
	// Clients are the front-ends' clients of this group, in the order they
	// were added: the ids its replicas admit requests from.
	Clients []*Client

	// OnRestart, if set, is invoked after Restart wires up a fresh
	// replica — the place to re-attach OnExecute/OnViewChange hooks.
	OnRestart func(i int, rep *Replica)

	pillar     int
	appFactory func(i int) Application
	keyrings   []*auth.Keyring

	peerLinks     [][]*msgnet.Peer // peerLinks[i][j]: outbound i -> j
	inboundPeer   [][]*msgnet.Peer // peer-initiated conns accepted by i
	inboundClient [][]*msgnet.Peer // client conns accepted by i on its client mesh

	// attachErrs collects re-attach/re-dial failures from Restart; they
	// surface through AttachErr (and chaos.Schedule.Err).
	attachErrs []error
}

// NewCluster builds N replica nodes (full mesh), opens msgnet meshes of
// the given transport kind and creates replicas running app instances
// from the factory. Call Start to complete connection setup, then
// AddClient.
func NewCluster(kind transport.Kind, cfg Config, params model.Params, seed int64, appFactory func(i int) Application) (*Cluster, error) {
	loop := sim.NewLoop(seed)
	hosts, err := NewHosts(loop, fabric.New(loop, params), kind, "", cfg.N, 1)
	if err != nil {
		return nil, err
	}
	return hosts.Place(cfg, 0, seed, appFactory)
}

// Place puts a replica group on the given pillar of the hosts: replica i
// runs on host i, executing into appFactory(i), with keyrings derived from
// keySeed. Groups sharing a network must pass distinct key seeds so their
// keyrings differ.
func (h *Hosts) Place(cfg Config, pillar int, keySeed int64, appFactory func(i int) Application) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if pillar >= len(h.pillars) {
		return nil, fmt.Errorf("pbft: pillar %d does not exist, the hosts have %d", pillar, len(h.pillars))
	}
	n := len(h.Meshes)
	c := &Cluster{
		Hosts:         h,
		Config:        cfg,
		pillar:        pillar,
		appFactory:    appFactory,
		keyrings:      auth.GenerateKeyrings(n, uint64(keySeed)+1),
		peerLinks:     make([][]*msgnet.Peer, n),
		inboundPeer:   make([][]*msgnet.Peer, n),
		inboundClient: make([][]*msgnet.Peer, n),
	}
	for i := 0; i < n; i++ {
		c.Apps = append(c.Apps, appFactory(i))
	}
	for i := 0; i < n; i++ {
		rep, err := NewReplica(uint32(i), cfg, h.Node(i), c.keyrings[i], c.Apps[i])
		if err != nil {
			return nil, err
		}
		c.Replicas = append(c.Replicas, rep)
		c.peerLinks[i] = make([]*msgnet.Peer, n)
	}
	return c, nil
}

// Start listens on every replica and dials the full connection mesh,
// running the loop until setup completes.
func (c *Cluster) Start() error {
	if err := c.Listen(); err != nil {
		return err
	}
	return c.Await()
}

// Listen listens on every host at the cluster's peer port on its pillar's
// peer mesh and at its client port on the pillar's client mesh, and posts
// the group's N·(N−1) peer dials; Hosts.Await completes them. Connections
// are handed to whichever replica occupies the slot when they arrive, so
// late ones reach a restarted replica.
func (c *Cluster) Listen() error {
	h := c.Hosts
	for i, mesh := range h.pillars[c.pillar] {
		if err := mesh.Listen(PeerPort+portStride*c.pillar, func(p *msgnet.Peer) {
			c.inboundPeer[i] = append(c.inboundPeer[i], p)
			c.Replicas[i].AttachInbound(p)
		}); err != nil {
			return err
		}
		if err := h.clients[c.pillar][i].Listen(ClientPort+portStride*c.pillar, func(p *msgnet.Peer) {
			c.inboundClient[i] = append(c.inboundClient[i], p)
			c.Replicas[i].HandleClientConn(p)
		}); err != nil {
			return err
		}
	}
	for i := range h.Meshes {
		for j := range h.Meshes {
			if i == j {
				continue
			}
			h.posted++
			h.Loop.Post(func() {
				c.dial(i, j, func(err error) {
					if err != nil {
						h.dialErr = err
						return
					}
					h.dialed++
				})
			})
		}
	}
	return nil
}

// dial opens replica i's outbound link to j; done reports the outcome.
func (c *Cluster) dial(i, j int, done func(error)) {
	h := c.Hosts
	h.pillars[c.pillar][i].Dial(h.Node(j), PeerPort+portStride*c.pillar, func(p *msgnet.Peer, err error) {
		if err != nil {
			done(fmt.Errorf("dial %s->%s (pillar %d): %w", h.Node(i).Name(), h.Node(j).Name(), c.pillar, err))
			return
		}
		c.peerLinks[i][j] = p
		c.Replicas[i].AttachPeer(uint32(j), p)
		done(nil)
	})
}

// FrontEnd is a client-side machine: its own node and mesh, linked to
// every host of every cluster it fronts, holding one Client per cluster.
// Which client an operation goes to is the application's business — this
// package orders opaque bytes.
type FrontEnd struct {
	Mesh    *msgnet.Mesh
	Clients []*Client
}

// NewFrontEnd creates node name, links it to the hosts of every cluster
// and dials one Client per cluster: client g has identity
// firstID + 1024·g, is registered with every replica of clusters[g] and
// talks to it at its pillar's client port. All dials are posted
// (cluster-outer, then replica) before the loop runs once. Clusters must
// have been started.
func NewFrontEnd(name string, firstID uint32, clusters []*Cluster) (*FrontEnd, error) {
	h0 := clusters[0].Hosts
	node := h0.Network.AddNode(name)
	for _, c := range clusters {
		// Connect returns an existing link, so clusters sharing hosts
		// link the node to them once.
		for i := range c.Meshes {
			h0.Network.Connect(node, c.Node(i))
		}
	}
	mesh, err := msgnet.NewMesh(h0.Kind, node, msgnet.DefaultOptions())
	if err != nil {
		return nil, err
	}
	fe := &FrontEnd{Mesh: mesh}
	var dialErr error
	dials, want := 0, 0
	for g, c := range clusters {
		cl := NewClient(firstID+clientIDStride*uint32(g), c.Config.F, node)
		fe.Clients = append(fe.Clients, cl)
		c.Clients = append(c.Clients, cl)
		for _, rep := range c.Replicas {
			rep.admit(cl.ID())
		}
		for i := range c.Meshes {
			want++
			h0.Loop.Post(func() {
				mesh.Dial(c.Node(i), ClientPort+portStride*c.pillar, func(p *msgnet.Peer, err error) {
					if err != nil {
						dialErr = err
						return
					}
					cl.AttachReplica(uint32(i), p)
					dials++
				})
			})
		}
	}
	h0.Loop.Run()
	if dialErr != nil {
		return nil, dialErr
	}
	if dials != want {
		return nil, fmt.Errorf("pbft: front-end %s wired %d of %d connections", name, dials, want)
	}
	return fe, nil
}

// AddClient creates a client on its own node, links it to every replica
// and dials the client ports. Must run after Start.
func (c *Cluster) AddClient() (*Client, error) {
	id := uint32(100 + len(c.Clients))
	fe, err := NewFrontEnd(fmt.Sprintf("%sclient%d", c.prefix, id), id, []*Cluster{c})
	if err != nil {
		return nil, err
	}
	return fe.Clients[0], nil
}

// SendFaults returns the delivery failures surfaced by every replica that
// ever ran on the cluster's hosts, and on no other host of a shared
// network: a crashed replica's count stays in the sum beside its
// successor's (the node keeps the history), and clusters sharing hosts —
// the groups of a COP deployment — share the sum.
func (c *Cluster) SendFaults() uint64 {
	return uint64(fabric.Fold(c.nodes...)["pbft.send_faults"])
}

// ---------------------------------------------------------------------------
// Fault orchestration (driven by internal/chaos)
// ---------------------------------------------------------------------------

// Crash fault-stops replica i: the process sends nothing, hears nothing
// and fires no timers from this instant on. All volatile state is lost;
// recovery goes through Restart.
func (c *Cluster) Crash(i int) { c.Replicas[i].Stop() }

// Restart replaces a crashed replica with a fresh instance — empty log,
// empty application state, view 0 — that admits the group's clients,
// attached to the surviving msgnet peers, then starts state transfer so it
// fetches the group's latest stable checkpoint and rejoins. Outbound peers whose connection died
// while the replica was down are re-dialed through the mesh; re-dial
// failures are recorded and surface through AttachErr.
func (c *Cluster) Restart(i int) error {
	// Silence the old instance even if Crash was never called: two live
	// replicas sharing identity and keyring would equivocate.
	c.Replicas[i].Stop()
	app := c.appFactory(i)
	rep, err := NewReplica(uint32(i), c.Config, c.Node(i), c.keyrings[i], app)
	if err != nil {
		return err
	}
	c.Replicas[i] = rep
	c.Apps[i] = app
	for _, cl := range c.Clients {
		rep.admit(cl.ID())
	}
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
		c.dial(i, j, func(err error) {
			if err != nil {
				c.attachErrs = append(c.attachErrs, fmt.Errorf("pbft: restart %s: re-%w", c.Node(i).Name(), err))
			}
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
	return c.Network.Link(c.Node(i), c.Node(j))
}

// Partition installs the requested topology among the listed replicas:
// links between replicas in different groups go down, links within a
// group come (back) up — so successive Partition calls over the same
// replicas replace each other rather than accumulate. Links touching a
// replica not listed in any group are left untouched (so faults set on
// them through ReplicaLink survive), as are client links. Severed links hold
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

// Heal restores every replica-to-replica link — including ones set down
// through ReplicaLink — releasing held frames in their original order.
func (c *Cluster) Heal() {
	for i := 0; i < c.Config.N; i++ {
		for j := i + 1; j < c.Config.N; j++ {
			c.ReplicaLink(i, j).SetDown(false)
		}
	}
}
