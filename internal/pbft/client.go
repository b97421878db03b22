package pbft

import (
	"slices"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/msgnet"
	"rubin/internal/sim"
)

// Client invokes operations against a replica group and accepts a result
// once F+1 matching replies arrive (at least one is from a correct
// replica).
//
// With the read-only fast path enabled (EnableReadFastPath), side-effect-
// free operations can instead be multicast as ReadRequests: every replica
// executes them tentatively against its last-executed state, and the
// client accepts a result once 2F+1 replicas report identical bytes —
// the stronger quorum reads require, because a tentative result carries
// no agreement certificate (Castro & Liskov §4.4). A read that cannot
// gather a matching 2F+1 quorum (split replies, or a timeout while
// replicas lag or change views) falls back to the ordered path,
// preserving liveness; the fallback count is surfaced for metrics.
//
// Safety note: under crash faults the 2F+1 value-match is linearizable —
// a completed write has executed at F+1 or more replicas, leaving at most
// 2F stale ones, which is short of a read quorum. A Byzantine replica
// could in principle echo a value it never executed; that hazard is
// exactly what the workload linearizability oracle exists to catch, and
// the adversarial self-test in this package proves the oracle rejects
// histories produced by stale-serving replicas.
type Client struct {
	id    uint32
	f     int
	conns []*msgnet.Peer // by replica id (nil: not attached); broadcast send order
	next  uint64

	pending map[uint64]*invocation
	spare   sim.FreeList[invocation] // finished records, vote cells emptied and kept
	scratch []byte                   // the request being sent, see broadcast

	// Read-only fast path (off while readTimeout is 0; see
	// EnableReadFastPath).
	loop        *sim.Loop
	readTimeout sim.Time
	reads       map[uint64]*readInvocation
	spareReads  sim.FreeList[readInvocation]
	onReadPath  func(key string, fast bool)

	// This client's cells in its node's stat table.
	sendErrs, fastReads, fastFallbacks *uint64
}

// replyVote is one replica's cell of an invocation's replies: replies are
// unauthenticated, so a vote is bound to the connection it arrived on —
// the cell's index — and a replica has one however many replies it sends.
// A vote keeps its result's digest: the result's bytes are lent by the
// message that carried them.
type replyVote struct {
	cast   bool
	result auth.Digest
}

type invocation struct {
	replies []replyVote // by replica id; its latest result
	done    func(result []byte)
}

type readInvocation struct {
	c       *Client
	ts      uint64
	op      []byte
	key     string
	replies []replyVote // by replica id; the first result it voted (equivocation-proof)
	voted   int
	done    func(result []byte)
	timer   sim.Timer
	expire  func() // fallback, bound once per record: arming the timer allocates nothing
}

func (inv *readInvocation) fallback() { inv.c.fallbackRead(inv.ts) }

// votes sizes a recycled record's emptied cells to the (only growing) conns.
func votes(cells []replyVote, n int) []replyVote { return slices.Grow(cells[:0], n)[:n] }

// NewClient creates a client running on node, where its counters
// register. Attach replica connections with AttachReplica before invoking.
func NewClient(id uint32, f int, node *fabric.Node) *Client {
	return &Client{
		id:      id,
		f:       f,
		pending: make(map[uint64]*invocation),
		reads:   make(map[uint64]*readInvocation),

		sendErrs:      node.Counter("pbft.client_send_errors"),
		fastReads:     node.Counter("pbft.fast_reads"),
		fastFallbacks: node.Counter("pbft.fast_read_fallbacks"),
	}
}

// ID returns the client identifier.
func (c *Client) ID() uint32 { return c.id }

// Outstanding returns the invocations still waiting for their reply
// quorum — zero once a workload has fully drained.
func (c *Client) Outstanding() int { return len(c.pending) + len(c.reads) }

// SendErrors returns the surfaced request-send failures. A client
// tolerates up to F failed sends per invocation (the quorum absorbs
// them), but the failures are still counted, never discarded.
func (c *Client) SendErrors() uint64 { return *c.sendErrs }

// EnableReadFastPath turns on the read-only optimization: InvokeRead
// multicasts reads instead of ordering them, falling back to the ordered
// path if a matching 2F+1 quorum has not formed after timeout, which must
// be positive. The loop drives the fallback timer.
func (c *Client) EnableReadFastPath(loop *sim.Loop, timeout sim.Time) {
	c.loop = loop
	c.readTimeout = timeout
}

// SetReadPathHook registers a callback fired when a fast-path-eligible
// invocation completes, reporting the request key it was traced under and
// whether the fast path served it (false means it fell back to ordering).
func (c *Client) SetReadPathHook(fn func(key string, fast bool)) { c.onReadPath = fn }

// FastReads returns the number of reads served by the fast path.
func (c *Client) FastReads() uint64 { return *c.fastReads }

// FastReadFallbacks returns the number of reads that failed to gather a
// matching 2F+1 quorum and were resubmitted through the ordered path.
func (c *Client) FastReadFallbacks() uint64 { return *c.fastFallbacks }

// AttachReplica wires the msgnet peer to replica id and consumes its
// replies. Only this connection votes as id: a reply claiming another
// replica's identity is dropped, as handleEnvelope drops a vote whose
// claimed replica is not the authenticated sender.
func (c *Client) AttachReplica(id uint32, p *msgnet.Peer) {
	for int(id) >= len(c.conns) {
		c.conns = append(c.conns, nil)
	}
	c.conns[id] = p
	p.OnSendError(func(error) { *c.sendErrs++ })
	p.OnMessage(func(_ msgnet.Class, raw []byte) {
		var m decoded
		if m.decode(raw) != nil || m.claimed != id {
			return
		}
		switch {
		case m.typ == MsgReply && m.reply.Client == c.id:
			c.handleReply(m.reply)
		case m.typ == MsgReadReply && m.read.Client == c.id:
			c.handleReadReply(m.read)
		}
	})
}

// Invoke submits one operation to all replicas; done fires once F+1
// matching replies arrive. The replicas depend on the broadcast: a
// pre-prepare names requests by digest, and every replica executes the
// copy it got from the client — one that missed it fetches it from the
// leader (Castro & Liskov, TOCS 2002, separate request transmission). The
// result done receives is lent: it is valid until done returns, and a
// caller that keeps it copies it. The returned string is the request's key
// — the id the observability layer traces it under.
func (c *Client) Invoke(op []byte, done func(result []byte)) string {
	c.next++
	ts := c.next
	inv := c.spare.Get()
	inv.replies, inv.done = votes(inv.replies, len(c.conns)), done
	c.pending[ts] = inv
	req := Request{Client: c.id, Timestamp: ts, Op: op}
	c.broadcast(req)
	return req.Key()
}

// InvokeRead submits a side-effect-free operation. With the fast path
// enabled it is multicast as a ReadRequest and accepted on 2F+1 matching
// tentative replies; otherwise (or on fallback) it travels the ordered
// path like any other operation. done's result is lent, as Invoke's is. The
// returned key is stable across a fallback, so callers trace the invocation
// under one id either way.
func (c *Client) InvokeRead(op []byte, done func(result []byte)) string {
	if c.readTimeout == 0 {
		return c.Invoke(op, done)
	}
	c.next++
	ts := c.next
	req := ReadRequest{Client: c.id, Timestamp: ts, Op: op}
	inv := c.spareReads.Get()
	if inv.expire == nil {
		inv.c, inv.expire = c, inv.fallback
	}
	inv.ts, inv.op, inv.key, inv.replies, inv.done = ts, op, req.Key(), votes(inv.replies, len(c.conns)), done
	c.reads[ts] = inv
	inv.timer = c.loop.After(c.readTimeout, inv.expire)
	c.broadcast(req)
	return inv.key
}

// broadcast encodes one client message into the client's scratch — Peer.Send
// copies before it returns (see room) — and sends it to every replica in id
// order (keeps simulations reproducible); a missing connection is a failed
// send.
func (c *Client) broadcast(m Message) {
	raw := encodeTo(&c.scratch, m)
	for _, p := range c.conns {
		if p == nil || p.Send(msgnet.ClassControl, raw) != nil {
			*c.sendErrs++
		}
	}
}

// matching counts the replicas whose reply's result has digest result.
func matching(replies []replyVote, result auth.Digest) int {
	n := 0
	for _, v := range replies {
		if v.cast && v.result == result {
			n++
		}
	}
	return n
}

func (c *Client) handleReply(rep Reply) {
	inv := c.pending[rep.Timestamp]
	if inv == nil || int(rep.Replica) >= len(inv.replies) {
		return
	}
	d := auth.Hash(rep.Result)
	inv.replies[rep.Replica] = replyVote{true, d}
	// Accept when F+1 replicas report the same result.
	if matching(inv.replies, d) >= c.f+1 {
		delete(c.pending, rep.Timestamp)
		done := inv.done
		clear(inv.replies)
		inv.done = nil
		c.spare.Put(inv)
		if done != nil {
			done(rep.Result)
		}
	}
}

func (c *Client) handleReadReply(rep ReadReply) {
	inv := c.reads[rep.Timestamp]
	if inv == nil || int(rep.Replica) >= len(inv.replies) {
		return
	}
	// First vote per replica wins: an equivocating replica cannot
	// contribute twice to a quorum, whatever tags it claims.
	if inv.replies[rep.Replica].cast {
		return
	}
	d := auth.Hash(rep.Result)
	inv.replies[rep.Replica] = replyVote{true, d}
	inv.voted++
	// Accept when 2F+1 replicas report byte-identical results. Matching
	// on the value (not the state tag) keeps the fast path live while
	// replicas execute at slightly different positions.
	if matching(inv.replies, d) >= 2*c.f+1 {
		key, done := c.finishRead(inv)
		*c.fastReads++
		if c.onReadPath != nil {
			c.onReadPath(key, true)
		}
		if done != nil {
			done(rep.Result)
		}
		return
	}
	// Every attached replica has voted and no value reached 2F+1: no
	// quorum can form anymore. Fall back now instead of burning the
	// remaining timeout.
	if inv.voted >= len(c.conns) {
		c.fallbackRead(rep.Timestamp)
	}
}

// fallbackRead abandons the tentative read and resubmits the operation
// through the ordered path. The invocation keeps its original trace key;
// the ordered retry completes under its own request id.
func (c *Client) fallbackRead(ts uint64) {
	inv := c.reads[ts]
	if inv == nil {
		return
	}
	op := inv.op
	key, done := c.finishRead(inv)
	*c.fastFallbacks++
	c.Invoke(op, func(result []byte) {
		if c.onReadPath != nil {
			c.onReadPath(key, false)
		}
		if done != nil {
			done(result)
		}
	})
}

// finishRead cancels a read's timer, deletes its entry, recycles its record.
func (c *Client) finishRead(inv *readInvocation) (key string, done func([]byte)) {
	inv.timer.Cancel()
	delete(c.reads, inv.ts)
	key, done = inv.key, inv.done
	clear(inv.replies)
	*inv = readInvocation{c: inv.c, replies: inv.replies, expire: inv.expire}
	c.spareReads.Put(inv)
	return key, done
}
