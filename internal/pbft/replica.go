package pbft

import (
	"fmt"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/msgnet"
	"rubin/internal/obs"
	"rubin/internal/sim"
)

// Replica is one PBFT group member.
type Replica struct {
	id      uint32
	cfg     Config
	node    *fabric.Node
	keyring *auth.Keyring
	app     Application
	ps      PartitionedState // app, if it can be checkpointed and transferred; else nil
	faults  Faults

	// peers[i] is the msgnet handle used to send to replica i (nil: none
	// attached, as for i == id).
	peers []*msgnet.Peer
	// clientConns[c] is where replies to client c go.
	clientConns map[uint32]*msgnet.Peer

	view     uint64
	seqNext  uint64  // next sequence the leader assigns
	log      []*slot // ring of LogWindow cells, see lookup
	executed uint64
	stable   uint64

	// cps owns checkpoint votes, own digests and the retained delta
	// chain; fetch owns the fetching side of state transfer.
	cps   *checkpointStore
	fetch *stateFetcher

	// stopped marks a crashed process: no sends, no receives, no timers.
	stopped bool

	// Leader batching.
	pending    sim.Queue[Request]
	proposed   map[reqID]bool // requests already assigned a slot
	batchTimer sim.Timer

	// requestStore remembers every known-but-unexecuted request so a
	// new leader can re-propose work the old leader dropped; arrivals is
	// its arrival order (executed entries are skipped when reached).
	requestStore map[reqID]Request
	arrivals     sim.Queue[reqID]

	// Exactly-once reply cache per client.
	replyCache map[uint32]Reply

	// Liveness: ONE timer per replica. Idle when nothing waits; else it
	// watches the oldest stored request, or — while viewChanging, and only
	// once 2F+1 replicas demand the view this one demanded — awaits the
	// NEW-VIEW. Each consecutive demanded view that fails to install
	// doubles the timeout until a request executes again.
	progress     sim.Timer
	onProgress   func() // progressExpired, bound once so arming allocates nothing
	watched      reqID
	viewChanging bool
	demanded     uint64 // view of this replica's latest VIEW-CHANGE
	failedViews  uint
	vcVotes      map[uint64][]*ViewChange // by demanded view, then replica id

	// Hooks.
	onExecute         func(seq uint64, batch []Request)
	onViewChange      func(newView uint64)
	onCheckpointAdopt func(seq uint64)

	// This instance's cells in its node's stat table (a restarted
	// replica's successor registers its own, so the node keeps the history):
	// sendFaults counts every surfaced delivery failure on the replica's
	// outbound traffic — nothing is silently discarded — stateBytesServed
	// the bytes it shipped to fetchers, readsServed its fast-path answers.
	sendFaults, stateBytesServed, readsServed *uint64

	// batches digests proposals without materialising their encoding.
	batches batchDigester
}

// NewReplica builds a replica. Connections are attached afterwards with
// AttachPeer / client requests arrive via HandleClientConn.
func NewReplica(id uint32, cfg Config, node *fabric.Node, keyring *auth.Keyring, app Application) (*Replica, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ps, _ := app.(PartitionedState)
	r := &Replica{
		ps:           ps,
		id:           id,
		cfg:          cfg,
		node:         node,
		keyring:      keyring,
		app:          app,
		view:         cfg.InitialView,
		peers:        make([]*msgnet.Peer, cfg.N),
		clientConns:  make(map[uint32]*msgnet.Peer),
		log:          make([]*slot, cfg.LogWindow),
		cps:          newCheckpointStore(cfg.N),
		fetch:        newStateFetcher(cfg, node),
		proposed:     make(map[reqID]bool),
		replyCache:   make(map[uint32]Reply),
		vcVotes:      make(map[uint64][]*ViewChange),
		requestStore: make(map[reqID]Request),

		sendFaults:       node.Counter("pbft.send_faults"),
		stateBytesServed: node.Counter("pbft.state_bytes_served"),
		readsServed:      node.Counter("pbft.reads_served"),
	}
	r.onProgress = r.progressExpired
	return r, nil
}

// View returns the current view number.
func (r *Replica) View() uint64 { return r.view }

// Executed returns the last executed sequence number.
func (r *Replica) Executed() uint64 { return r.executed }

// Stable returns the last stable checkpoint sequence.
func (r *Replica) Stable() uint64 { return r.stable }

// SetFaults installs fault-injection behaviour.
func (r *Replica) SetFaults(f Faults) { r.faults = f }

// Stop halts the replica permanently: a stopped replica sends nothing,
// ignores all inbound traffic and fires no timers — the process-crash
// model used by the chaos subsystem. Recovery is a fresh Replica plus
// state transfer (see Cluster.Restart), mirroring a real reboot that
// loses all volatile state.
func (r *Replica) Stop() {
	r.stopped = true
	r.batchTimer.Cancel()
	r.progress.Cancel()
	r.fetch.retry.Cancel()
}

// OnExecute installs a hook invoked after each executed batch.
func (r *Replica) OnExecute(fn func(seq uint64, batch []Request)) { r.onExecute = fn }

// tracer returns the world's observability tracer, which records the
// request milestones this replica observes (leader receipt, proposal
// broadcast, read-serve, commit/execute). Nil — the default — costs one
// pointer test per milestone site.
func (r *Replica) tracer() *obs.Tracer { return r.node.Network().Tracer() }

// OnViewChange installs a hook invoked when a new view is installed.
func (r *Replica) OnViewChange(fn func(uint64)) { r.onViewChange = fn }

// OnCheckpointAdopt installs a hook invoked when a state transfer
// fast-forwards execution to an adopted checkpoint. The sequences up to
// seq were NOT delivered through OnExecute — their batches are folded
// into the adopted application state and their contents are not
// recoverable here. Consumers that derive an order from OnExecute (the
// Reptor executor) must account for the jump or they will wait forever
// for deliveries that can no longer happen.
func (r *Replica) OnCheckpointAdopt(fn func(seq uint64)) { r.onCheckpointAdopt = fn }

// Leader returns the leader replica of a view.
func (r *Replica) Leader(view uint64) uint32 { return uint32(view % uint64(r.cfg.N)) }

// IsLeader reports whether this replica leads the current view.
func (r *Replica) IsLeader() bool { return r.Leader(r.view) == r.id }

// AttachPeer wires the outbound msgnet peer to a replica and starts
// consuming inbound messages from it. Asynchronous delivery failures
// (connection death with messages queued) feed the fault counter.
func (r *Replica) AttachPeer(id uint32, p *msgnet.Peer) {
	r.peers[id] = p
	p.OnMessage(func(_ msgnet.Class, raw []byte) { r.handleEnvelope(raw) })
	p.OnSendError(func(error) { *r.sendFaults++ })
}

// AttachInbound consumes messages from a peer-initiated connection
// (sender identity travels in the authenticated envelope).
func (r *Replica) AttachInbound(p *msgnet.Peer) {
	p.OnMessage(func(_ msgnet.Class, raw []byte) { r.handleEnvelope(raw) })
}

// HandleClientConn consumes client requests from a client connection.
func (r *Replica) HandleClientConn(p *msgnet.Peer) {
	p.OnSendError(func(error) { *r.sendFaults++ })
	p.OnMessage(func(_ msgnet.Class, raw []byte) {
		msg, err := Decode(raw)
		if err != nil {
			return
		}
		switch req := msg.(type) {
		case Request:
			r.clientConns[req.Client] = p
			r.handleRequest(req)
		case ReadRequest:
			r.clientConns[req.Client] = p
			r.handleReadRequest(req)
		}
	})
}

// crypto charges modeled CPU time for cryptographic work.
func (r *Replica) crypto(d sim.Time) { r.node.CPU.Delay(d) }

// deferSend runs fn now, or after the injected SendDelay fault. A delayed
// send re-checks the crash state at fire time: a replica that Stop()s
// while a send is queued must not transmit afterwards.
func (r *Replica) deferSend(fn func()) {
	if r.faults.SendDelay > 0 {
		r.node.Loop().After(r.faults.SendDelay, func() {
			if !r.stopped {
				fn()
			}
		})
		return
	}
	fn()
}

// broadcast authenticates and sends a message to all other replicas.
func (r *Replica) broadcast(m Message) {
	if r.stopped || r.faults.Crashed || (r.faults.Mute != nil && r.faults.Mute[m.msgType()]) {
		return
	}
	env, size := r.seal(m)
	r.crypto(auth.AuthenticatorCost(r.node.Network().Params().Crypto, r.cfg.N, size))
	// An equivocating leader's pre-prepares conflict: correct to the even
	// backups, digest-corrupted to the odd ones.
	oddEnv := env
	if pp, isPP := m.(PrePrepare); isPP && r.faults.EquivocateLeader {
		pp.Digest[0] ^= 0xFF
		oddEnv, _ = r.seal(pp)
	}
	cls := classFor(m.msgType())
	r.deferSend(func() {
		// Ascending id order, so send order (and therefore the simulation)
		// is deterministic. A peer with no live handle (e.g. mid-re-dial
		// after a Restart) is a delivery failure too — counted, never
		// silently skipped.
		for id, peer := range r.peers {
			out := env
			if id%2 != 0 {
				out = oddEnv
			}
			if uint32(id) != r.id && (peer == nil || peer.Send(cls, out) != nil) {
				*r.sendFaults++
			}
		}
	})
}

// classFor routes protocol messages onto msgnet traffic classes: state
// transfer — manifests and partition payloads — rides ClassBulk so a
// large transfer cannot head-of-line-block the latency-critical
// agreement messages.
func classFor(t MsgType) msgnet.Class {
	switch t {
	case MsgStateManifest, MsgStatePart:
		return msgnet.ClassBulk
	}
	return msgnet.ClassControl
}

// send authenticates and sends to one replica.
func (r *Replica) send(to uint32, m Message) {
	if r.stopped || r.faults.Crashed || (r.faults.Mute != nil && r.faults.Mute[m.msgType()]) {
		return
	}
	if int(to) >= len(r.peers) || r.peers[to] == nil {
		*r.sendFaults++ // no live handle: a delivery failure, not a silent skip
		return
	}
	env, size := r.seal(m)
	r.crypto(auth.Cost(r.node.Network().Params().Crypto, size))
	cls := classFor(m.msgType())
	peer := r.peers[to]
	r.deferSend(func() {
		if err := peer.Send(cls, env); err != nil {
			*r.sendFaults++
		}
	})
}

// Envelope is the authenticated wrapper for replica-to-replica messages.
type Envelope struct {
	Sender  uint32
	Payload []byte
	Auth    auth.Authenticator
}

// seal lays sender | len | payload | MACs out in one buffer of exactly the
// envelope's size: m is encoded once, straight into place, and each MAC is
// computed over that sub-slice and appended behind it. size is the payload's
// length, which the modeled crypto charges go by.
func (r *Replica) seal(m Message) (env []byte, size int) {
	kr := r.keyring
	size, n := encodedSize(m), kr.N()
	e := &encoder{buf: make([]byte, 0, 4+4+size+4+4*n+(n-1)*auth.MACSize)}
	e.u32(r.id)
	e.u32(uint32(size))
	e.message(m)
	payload := e.buf[8:]
	e.u32(uint32(n))
	for peer := 0; peer < n; peer++ {
		if peer == kr.Self() {
			e.u32(0)
			continue
		}
		e.u32(auth.MACSize)
		e.buf = kr.AppendMAC(e.buf, peer, payload)
		if r.faults.CorruptMACs {
			e.buf[len(e.buf)-auth.MACSize] ^= 0xFF
		}
	}
	return e.buf, size
}

// DecodeEnvelope parses an envelope. Payload and the MACs alias raw, under
// the same rule as Decode.
func DecodeEnvelope(raw []byte) (Envelope, error) {
	d := &decoder{buf: raw}
	env := Envelope{Sender: d.u32(), Payload: d.bytes()}
	// Every entry takes at least its length prefix, so a forged count
	// cannot size the vector beyond what the input could hold.
	if n := d.count(min(1<<16, len(d.buf)/4)); n > 0 {
		env.Auth = make(auth.Authenticator, n)
		for i := range env.Auth {
			env.Auth[i] = d.bytes()
		}
	}
	if d.err != nil {
		return Envelope{}, d.err
	}
	if len(d.buf) != 0 {
		return Envelope{}, fmt.Errorf("pbft: %d trailing envelope bytes", len(d.buf))
	}
	return env, nil
}

// handleEnvelope verifies and dispatches one replica-to-replica message.
func (r *Replica) handleEnvelope(raw []byte) {
	if r.stopped {
		return
	}
	env, err := DecodeEnvelope(raw)
	if err != nil {
		return
	}
	p := r.node.Network().Params().Crypto
	r.crypto(auth.Cost(p, len(env.Payload)))
	if !r.keyring.VerifyFrom(int(env.Sender), env.Payload, env.Auth) {
		return // forged or corrupted: drop (paper III-C: HMACs detect)
	}
	msg, err := Decode(env.Payload)
	if err != nil {
		return
	}
	// Bind claimed identity to the authenticated sender: vote-carrying
	// messages whose in-payload Replica field does not match the MAC'd
	// envelope sender are forgeries (one Byzantine peer spoofing other
	// replicas' votes to fabricate quorums) and are dropped here so no
	// handler ever counts a vote under a spoofed identity.
	if claimed, ok := claimedReplica(msg); ok && claimed != env.Sender {
		return
	}
	switch m := msg.(type) {
	case Request: // forwarded by a backup to the leader
		r.handleRequest(m)
	case PrePrepare:
		r.handlePrePrepare(env.Sender, m, len(env.Payload))
	case Prepare:
		r.handlePrepare(m)
	case Commit:
		r.handleCommit(m)
	case Checkpoint:
		r.recordCheckpoint(env.Sender, m)
	case ViewChange:
		r.handleViewChange(m)
	case NewView:
		r.handleNewView(env.Sender, m)
	case StateRequest:
		r.handleStateRequest(env.Sender, m)
	case StateManifest:
		r.handleStateManifest(env.Sender, m)
	case StatePart:
		r.handleStatePart(env.Sender, m)
	}
}

// claimedReplica extracts the replica identity a message claims to
// originate from, for messages that carry one.
func claimedReplica(m Message) (uint32, bool) {
	switch v := m.(type) {
	case Prepare:
		return v.Replica, true
	case Commit:
		return v.Replica, true
	case Checkpoint:
		return v.Replica, true
	case ViewChange:
		return v.Replica, true
	case StateRequest:
		return v.Replica, true
	case StateManifest:
		return v.Replica, true
	case StatePart:
		return v.Replica, true
	default:
		return 0, false
	}
}
