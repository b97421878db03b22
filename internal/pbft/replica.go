package pbft

import (
	"bytes"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/model"
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
	outbox  Outbox // nil but in tests that make this replica Byzantine

	// peers[i] is the msgnet handle used to send to replica i (nil: none
	// attached, as for i == id).
	peers []*msgnet.Peer

	view     uint64
	seqNext  uint64   // next sequence the leader assigns
	log      []*slot  // ring of LogWindow cells, made a chunk at a time (see slotFor)
	parked   []uint64 // sequences whose proposal waits for request copies (see resolve)
	executed uint64
	stable   uint64

	// cps owns checkpoint votes, own digests and the retained delta
	// chain; fetch owns the fetching side of state transfer.
	cps   *checkpointStore
	fetch *stateFetcher

	// stopped marks a crashed process: no sends, no receives, no timers.
	stopped bool

	// Leader batching: admitted requests, each with the instant its
	// ordering work is done (see order), and the sum of their op sizes.
	pending      sim.Queue[admitted]
	pendingBytes int
	batchTimer   sim.Timer
	propose      func()           // proposeBatch, bound once so arming or posting it allocates nothing
	unsent       []unsentProposal // proposals waiting for their CPU work, in the order they were made
	sendNext     func()           // sendProposal, bound once

	// What request admission reads, one row per client and one per request
	// (see client, request). A request waits in its row until it executes, so
	// a new leader can re-propose work the old leader dropped; arrivals is
	// the order rows were first filed in, which the progress timer follows
	// (rows done or forgotten are skipped when reached). slab holds the
	// rows' copies in chunks, entry held-1 for a row's held index; made
	// entries have been handed out, and vacant lists the held indices no
	// row holds, the last vacated on top.
	clients  []client
	requests map[RequestID]request
	slab     []*[copyChunk]reqCopy
	made     uint32
	vacant   []uint32
	arrivals sim.Queue[RequestID]

	// Liveness: ONE timer per replica. Idle when nothing waits; else it
	// watches the oldest stored request, or — while viewChanging, and only
	// once 2F+1 replicas demand the view this one demanded — awaits the
	// NEW-VIEW. Each consecutive demanded view that fails to install
	// doubles the timeout until a request executes again. A watch is due
	// at its full deadline, due, or earlier if the view's leader falls
	// silent (see progress.go): quiet is when the silence began — the
	// leader's last PRE-PREPARE, or the watch's start if later — and heard
	// whether the leader has proposed in this view.
	progress     sim.Timer
	onProgress   func() // progressExpired, bound once so arming allocates nothing
	watched      RequestID
	due, quiet   sim.Time
	heard        bool
	viewChanging bool
	demanded     uint64 // view of this replica's latest VIEW-CHANGE
	failedViews  uint
	vcVotes      map[uint64][]*ViewChange // by demanded view, then replica id
	held         *NewView                 // the new leader's NEW-VIEW, until it holds every request named (see installNewView)

	// Hooks.
	onExecute         func(seq uint64, batch []Request)
	onViewChange      func(newView uint64)
	onCheckpointAdopt func(seq uint64)

	// This instance's cells in its node's stat table (a restarted
	// replica's successor registers its own, so the node keeps the history):
	// sendFaults counts every surfaced delivery failure on the replica's
	// outbound traffic — nothing is silently discarded — stateBytesServed
	// the bytes it shipped to fetchers, readsServed its fast-path answers,
	// reproposed the request batches its sent NEW-VIEWs carried, and
	// silencePeak the longest silence of a view's leader, in nanoseconds,
	// held against it while it lasted (see noteSilence).
	sendFaults, stateBytesServed, readsServed, reproposed, silencePeak *uint64

	// batches digests proposals without materialising their encoding.
	batches batchDigester

	// scratch holds whatever this replica sends, one message at a time: an
	// envelope or a reply is encoded into it and handed to Peer.Send, which
	// copies before it returns (see room). refs holds a delivered
	// PRE-PREPARE's refs until its handler returns.
	scratch []byte
	refs    []RequestRef

	// ops is the slab chunk keep copies small request ops into; free holds
	// the backings of large ops rows have released, the last on top, for
	// keep to copy the next large op into.
	ops  []byte
	free [][]byte
}

// NewReplica builds a replica. Connections are attached afterwards with
// AttachPeer / client requests arrive via HandleClientConn.
func NewReplica(id uint32, cfg Config, node *fabric.Node, keyring *auth.Keyring, app Application) (*Replica, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Replica{
		id:       id,
		cfg:      cfg,
		node:     node,
		keyring:  keyring,
		app:      app,
		view:     cfg.InitialView,
		peers:    make([]*msgnet.Peer, cfg.N),
		log:      make([]*slot, cfg.LogWindow),
		cps:      newCheckpointStore(cfg.N),
		fetch:    newStateFetcher(cfg, node),
		requests: make(map[RequestID]request),
		vcVotes:  make(map[uint64][]*ViewChange),

		sendFaults:       node.Counter("pbft.send_faults"),
		stateBytesServed: node.Counter("pbft.state_bytes_served"),
		readsServed:      node.Counter("pbft.reads_served"),
		reproposed:       node.Counter("pbft.reproposed"),
		silencePeak:      node.Peak("pbft.silence_peak_ns"),
	}
	r.onProgress, r.propose, r.sendNext = r.progressExpired, r.proposeBatch, r.sendProposal
	return r, nil
}

// View returns the current view number.
func (r *Replica) View() uint64 { return r.view }

// Executed returns the last executed sequence number.
func (r *Replica) Executed() uint64 { return r.executed }

// Stable returns the last stable checkpoint sequence.
func (r *Replica) Stable() uint64 { return r.stable }

// Outbox stands between a replica and the wire, where a test puts a
// Byzantine replica's behaviour: it sees each envelope and client reply the
// replica sends, once per recipient, and returns what to transmit (nil
// drops it) and how long to hold it first. env is the sender's scratch,
// which a broadcast hands every recipient in turn: an outbox that rewrites
// a message returns bytes of its own.
type Outbox func(to *msgnet.Peer, env []byte) (out []byte, delay sim.Time)

// SetOutbox installs o on the replica's sends; nil, the default, sends
// everything as it is.
func (r *Replica) SetOutbox(o Outbox) { r.outbox = o }

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

// Stopped reports whether the replica has been stopped.
func (r *Replica) Stopped() bool { return r.stopped }

// OnExecute installs a hook invoked after each executed batch. The batch's
// ops are lent until the hook returns: the replica reuses the copies it
// releases.
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
// recoverable here. A consumer that follows execution through OnExecute
// must account for the jump: the benchmark's recovery trace counts an
// adoption as a restarted replica's rejoin.
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
		var m decoded
		if m.decode(raw) != nil || (m.typ != MsgRequest && m.typ != MsgReadRequest) {
			return
		}
		if m.typ == MsgRequest {
			r.handleRequest(m.request, p)
		} else {
			r.handleReadRequest(ReadRequest(m.request), p)
		}
	})
}

// crypto charges modeled CPU time for cryptographic work and returns the
// instant the work is done.
func (r *Replica) crypto(kind sim.Kind, d sim.Time) sim.Time { return r.node.CPU.Delay(kind, d) }

// deferSend sends env to one peer — through the outbox, if one is
// installed — now, or when the outbox delays it. env is the sender's
// scratch, which Peer.Send copies before it returns; a delayed send copies
// it first, since the scratch will long have been reused when it fires, and
// re-checks the crash state then: a replica that Stop()s while a send is
// queued must not transmit afterwards. Without an outbox nothing here
// allocates — the closure belongs to the delay.
func (r *Replica) deferSend(to *msgnet.Peer, cls msgnet.Class, env []byte) {
	var delay sim.Time
	if r.outbox != nil {
		if env, delay = r.outbox(to, env); env == nil {
			return
		}
	}
	if delay > 0 {
		env := bytes.Clone(env)
		r.node.Loop().After(delay, func() {
			if !r.stopped && to.Send(cls, env) != nil {
				*r.sendFaults++
			}
		})
		return
	}
	if to.Send(cls, env) != nil {
		*r.sendFaults++
	}
}

// broadcast authenticates and sends a message to all other replicas, in
// ascending id order, so send order (and therefore the simulation) is
// deterministic. A peer with no live handle (e.g. mid-re-dial after a
// Restart) is a delivery failure too — counted, never silently skipped.
func (r *Replica) broadcast(m Message) {
	if r.stopped {
		return
	}
	env, t, size := r.seal(m)
	r.crypto(model.MAC, auth.AuthenticatorCost(r.node.Network().Params().Crypto, r.cfg.N, size))
	for id, peer := range r.peers {
		switch {
		case uint32(id) == r.id:
		case peer == nil:
			*r.sendFaults++
		default:
			r.deferSend(peer, classFor(t), env)
		}
	}
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
	if r.stopped {
		return
	}
	env, t, size := r.seal(m)
	if int(to) >= len(r.peers) || r.peers[to] == nil {
		*r.sendFaults++ // no live handle: a delivery failure, not a silent skip
		return
	}
	r.crypto(model.MAC, auth.Cost(r.node.Network().Params().Crypto, size))
	r.deferSend(r.peers[to], classFor(t), env)
}

// ppHeader is the length of a pre-prepare's header: type, view, sequence
// and batch digest.
const ppHeader = 1 + 8 + 8 + auth.DigestSize

// authenticated returns what a replica authenticator covers of payload: a
// pre-prepare's header, whose digest binds the batch (Castro & Liskov
// §4.2), and any other message whole. The modeled MAC charges follow it.
func authenticated(payload []byte) []byte {
	if len(payload) > ppHeader && MsgType(payload[0]) == MsgPrePrepare {
		return payload[:ppHeader]
	}
	return payload
}

// seal lays sender | len | payload | MACs out in the replica's scratch, at
// exactly the envelope's size: m is encoded once, straight into place, and
// each MAC is computed over what of it is authenticated and appended behind
// it. t is the payload's type — read off its tag, because asking m would box
// it — and size the length the MACs cover, which the modeled crypto charges
// go by. env is valid until the replica's next seal or reply.
func (r *Replica) seal(m Message) (env []byte, t MsgType, size int) {
	kr := r.keyring
	length, n := encodedSize(m), kr.N()
	e := &encoder{buf: room(&r.scratch, 4+4+length+4+4*n+(n-1)*auth.MACSize)}
	e.u32(r.id)
	e.u32(uint32(length))
	e.message(m)
	covered := authenticated(e.buf[8:])
	e.u32(uint32(n))
	for peer := 0; peer < n; peer++ {
		if peer == kr.Self() {
			e.u32(0)
			continue
		}
		e.u32(auth.MACSize)
		e.buf = kr.AppendMAC(e.buf, peer, covered)
	}
	return e.buf, MsgType(covered[0]), len(covered)
}

// openEnvelope walks the authenticated wrapper of a replica-to-replica
// message in place and shows every entry of its MAC vector to visit.
// Payload and MACs alias raw, under the same rule as decode. The entry
// count is input no MAC has vouched for yet: it sizes nothing and only
// bounds the walk — by what raw could hold, every entry taking at least
// its length prefix.
func openEnvelope(raw []byte, visit func(i int, mac []byte)) (sender uint32, payload []byte, err error) {
	d := decoder{buf: raw}
	sender, payload = d.u32(), d.bytes()
	for i, n := 0, d.count(min(1<<16, len(d.buf)/4)); i < n; i++ {
		visit(i, d.bytes())
	}
	return sender, payload, d.end()
}

// handleEnvelope verifies and dispatches one replica-to-replica message.
func (r *Replica) handleEnvelope(raw []byte) {
	if r.stopped {
		return
	}
	var mac []byte // this replica's entry of the sender's authenticator
	self := r.keyring.Self()
	sender, payload, err := openEnvelope(raw, func(i int, entry []byte) {
		if i == self {
			mac = entry
		}
	})
	if err != nil {
		return
	}
	covered := authenticated(payload)
	r.crypto(model.MAC, auth.Cost(r.node.Network().Params().Crypto, len(covered)))
	if !r.keyring.Verify(int(sender), covered, mac) {
		return // forged or corrupted: drop (paper III-C: HMACs detect)
	}
	m := decoded{refs: &r.refs}
	// Bind claimed identity to the authenticated sender: vote-carrying
	// messages whose in-payload Replica field does not match the MAC'd
	// envelope sender are forgeries (one Byzantine peer spoofing other
	// replicas' votes to fabricate quorums) and are dropped here so no
	// handler ever counts a vote under a spoofed identity.
	if m.decode(payload) != nil || (m.claims && m.claimed != sender) {
		return
	}
	switch m.typ {
	case MsgRequest: // a FETCH answer
		r.handleFetched(m.request)
	case MsgFetch:
		r.handleFetch(sender, m.fetch)
	case MsgPrePrepare:
		r.handlePrePrepare(sender, m.proposal, len(payload))
	case MsgPrepare:
		r.handlePrepare(m.vote)
	case MsgCommit:
		r.handleCommit(Commit(m.vote))
	case MsgCheckpoint:
		r.recordCheckpoint(sender, m.cp)
	case MsgViewChange:
		r.handleViewChange(m.vc)
	case MsgNewView:
		r.handleNewView(sender, m.nv)
	case MsgStateRequest:
		r.handleStateRequest(sender, m.stateReq)
	case MsgStateManifest:
		r.handleStateManifest(sender, m.manifest)
	case MsgStatePart:
		r.handleStatePart(sender, m.part)
	}
}
