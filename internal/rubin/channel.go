package rubin

import (
	"errors"
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/rdma"
	"rubin/internal/sim"
)

// Errors returned by channel operations.
var (
	ErrMessageTooBig = errors.New("rubin: message exceeds channel buffer size")
	ErrWouldBlock    = errors.New("rubin: no send capacity, wait for OpSend")
	ErrChanClosed    = errors.New("rubin: channel closed")
)

// Config sizes a channel's RDMA resources. The zero value is not usable;
// start from DefaultConfig.
type Config struct {
	// SendWRs and RecvWRs are the work-request pool depths.
	SendWRs int
	RecvWRs int
	// BufferSize is the size of each pooled buffer and therefore the
	// largest message the channel can carry.
	BufferSize int
	// SignalInterval requests a signaled send completion every Nth send
	// (selective signaling). 1 signals every send.
	SignalInterval int
	// PostBatch caps how many queued sends are posted per doorbell.
	PostBatch int
	// Inline sends payloads at or below the device inline limit inside
	// the work request itself.
	Inline bool
	// ZeroCopyReceive removes the modeled charge (CopyPerKB on the
	// receiving thread) for the copy out of the registered buffer, the
	// paper's planned future optimization. The host is the same either way:
	// Receive returns the very memory the NIC wrote, which the slot gives up.
	ZeroCopyReceive bool
}

// DefaultConfig returns the channel configuration used by the paper's
// evaluation: enough 128 KB buffers for the 1–100 KB payload sweep, with
// every Section IV optimization enabled per the model's parameter set.
func DefaultConfig(p model.Params) Config {
	return Config{
		SendWRs:         64,
		RecvWRs:         64,
		BufferSize:      128 << 10,
		SignalInterval:  p.Selector.SignalInterval,
		PostBatch:       p.Selector.PostBatch,
		Inline:          true,
		ZeroCopyReceive: p.Selector.ZeroCopyReceive,
	}
}

func (cfg Config) validate() error {
	if cfg.SendWRs < 1 || cfg.RecvWRs < 1 {
		return fmt.Errorf("rubin: WR pool depths must be positive (%d/%d)", cfg.SendWRs, cfg.RecvWRs)
	}
	if cfg.BufferSize < 1 {
		return fmt.Errorf("rubin: buffer size must be positive")
	}
	if cfg.SignalInterval < 1 {
		return fmt.Errorf("rubin: signal interval must be >= 1")
	}
	if cfg.PostBatch < 1 {
		return fmt.Errorf("rubin: post batch must be >= 1")
	}
	return nil
}

// Channel is an RDMA connection with NIO-socket-like non-blocking
// semantics. Create channels with Connect or accept them from a
// ServerChannel, then register with a Selector.
type Channel struct {
	id  uint64
	sel *Selector // the selector it was made for, whose CQ pair it completes to
	cfg Config

	// inlineMax is the largest message sent inline: the device limit
	// (model.RDMAParams.InlineMax) when Config.Inline is set, else 0.
	inlineMax int

	qp *rdma.QP

	// Pre-registered buffer pools (paper Section IV): one region per
	// pool, partitioned into fixed-size slots.
	sendMR *rdma.MR
	recvMR *rdma.MR

	freeSend []int // free send slot indices

	// Selective signaling bookkeeping: sends are numbered; every
	// SignalInterval-th WR is signaled and its completion releases all
	// slots up to it.
	sendSeq  uint64
	inFlight sim.Queue[pendingSlot] // slots awaiting a covering signaled CQE

	// Send seq uses wrs[seq%SendWRs], a table made by the first Send. The
	// sends in inFlight have consecutive seqs, at most SendWRs of them, so
	// no two live sends share a WR, and the QP is done with one that a
	// completion has covered. pendingWRs awaits the end-of-turn doorbell;
	// postBuf is the batch handed to PostSend.
	wrs        []rdma.SendWR
	pendingWRs sim.Queue[*rdma.SendWR]
	postBuf    []*rdma.SendWR

	flushArmed bool
	flushFn    func() // c.flushTurn
	wantSend   bool

	// Receive pipeline: CQEs queue here and are processed one burst at a
	// time (rxActive; rxBatch is its size) on the node's app thread so
	// per-message copies cannot reorder.
	rxPending sim.Queue[rdma.CQE]
	rxActive  bool
	rxBatch   int
	rxDoneFn  func() // c.rxDone

	// Received messages ready for Receive().
	inbox sim.Queue[[]byte]

	key       *SelectionKey
	connected bool
	closed    bool

	// Stats.
	sent, received uint64
	signaled       uint64
}

type pendingSlot struct {
	seq  uint64
	slot int // -1 for inline sends (no pool slot)
}

func newChannel(sel *Selector, cfg Config, id uint64) (*Channel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Channel{id: id, sel: sel, cfg: cfg}
	if cfg.Inline {
		c.inlineMax = c.node().Network().Params().RDMA.InlineMax
	}
	c.flushFn, c.rxDoneFn = c.flushTurn, c.rxDone
	c.freeSend = make([]int, 0, cfg.SendWRs)
	for i := 0; i < cfg.SendWRs; i++ {
		c.freeSend = append(c.freeSend, i)
	}
	return c, nil
}

func (c *Channel) node() *fabric.Node { return c.sel.dev.Node() }

// qpConfig builds the QP sizing for this channel.
func (c *Channel) qpConfig() rdma.QPConfig {
	return rdma.QPConfig{
		SendCQ:    c.sel.sendCQ,
		RecvCQ:    c.sel.recvCQ,
		MaxSendWR: c.cfg.SendWRs,
		MaxRecvWR: c.cfg.RecvWRs,
		MaxInline: c.inlineMax,
	}
}

// finishSetup registers buffer pools, posts the initial receive WRs and
// joins the selector's QPN table; called once the QP exists (after CM
// handshake on either side).
func (c *Channel) finishSetup(qp *rdma.QP) error {
	c.qp = qp
	pd := c.sel.dev.AllocPD()
	// Pool registration happens once at connection setup — the cost is
	// deliberately front-loaded (paper: buffer pools are pre-registered
	// and reused as needed). One block per slot: the modeled cost covers
	// the whole pool, the host backs a slot only as far as its messages
	// reach.
	c.sendMR = pd.RegisterPool(c.cfg.SendWRs, c.cfg.BufferSize, rdma.AccessLocalWrite, nil)
	c.recvMR = pd.RegisterPool(c.cfg.RecvWRs, c.cfg.BufferSize, rdma.AccessLocalWrite, nil)
	for i := 0; i < c.cfg.RecvWRs; i++ {
		wr := rdma.RecvWR{ID: uint64(i), MR: c.recvMR, Offset: i * c.cfg.BufferSize, Length: c.cfg.BufferSize}
		if err := qp.PostRecv(wr); err != nil {
			return fmt.Errorf("rubin: initial PostRecv: %w", err)
		}
	}
	c.sel.attach(c)
	c.connected = true
	return nil
}

// pumpRx processes queued receive completions in bursts: one app-thread
// acquisition covers the whole burst's copy cost and one selector event is
// pushed per burst, so heavy traffic amortizes the event machinery the
// same way a real selector loop does.
func (c *Channel) pumpRx() {
	if c.rxActive || c.rxPending.Len() == 0 || c.closed {
		return
	}
	c.rxActive = true
	c.rxBatch = c.rxPending.Len()

	p := c.node().Network().Params()
	var copyCost sim.Time
	if !c.cfg.ZeroCopyReceive {
		for i := 0; i < c.rxBatch; i++ {
			if cqe := c.rxPending.At(i); cqe.Status == rdma.StatusOK {
				copyCost += model.KB(p.Selector.CopyPerKB, cqe.Bytes)
			}
		}
	}
	c.node().App.Acquire(copyCost, c.rxDoneFn)
}

// rxDone lands the burst pumpRx charged for: the rxBatch completions at the
// front of rxPending (later arrivals queued behind them wait their turn).
func (c *Channel) rxDone() {
	delivered := 0
	for ; c.rxBatch > 0 && !c.closed; c.rxBatch-- {
		if c.finishRecvCQE(c.rxPending.Pop()) {
			delivered++
		}
	}
	c.rxActive = false
	if delivered > 0 && c.key != nil {
		c.key.markReady(OpReceive)
		c.key.sel.push(event{key: c.key, ops: OpReceive})
	}
	c.pumpRx()
}

// finishRecvCQE queues one received message — the slot's backing, exactly
// the bytes the NIC wrote (pumpRx charged any modeled copy) — and re-posts
// the slot empty; reports whether a message was queued.
func (c *Channel) finishRecvCQE(cqe rdma.CQE) bool {
	if cqe.Status != rdma.StatusOK {
		c.fail()
		return false
	}
	off := int(cqe.WRID) * c.cfg.BufferSize
	c.inbox.Push(c.recvMR.Take(off, cqe.Bytes))
	c.received++
	wr := rdma.RecvWR{ID: cqe.WRID, MR: c.recvMR, Offset: off, Length: c.cfg.BufferSize}
	if err := c.qp.PostRecv(wr); err != nil {
		c.fail()
		return false
	}
	return true
}

// ID returns the channel's unique connection identifier (paper III-B).
func (c *Channel) ID() uint64 { return c.id }

// Peer returns the remote node once connected, else nil.
func (c *Channel) Peer() *fabric.Node {
	if c.qp == nil {
		return nil
	}
	return c.qp.RemoteNode()
}

// SignaledCompletions returns how many send completions were actually
// signaled — with selective signaling this is ~Sent/SignalInterval.
func (c *Channel) SignaledCompletions() uint64 { return c.signaled }

// SendCapacity returns how many more messages can be queued right now
// (bounded by the work-request queue depth; non-inline messages
// additionally need a free pool buffer).
func (c *Channel) SendCapacity() int {
	return c.cfg.SendWRs - c.inFlight.Len()
}

// Send queues one message (non-blocking). It returns ErrWouldBlock when
// the send pool is exhausted; register for OpSend to learn when capacity
// returns. Messages from consecutive Send calls within one selector turn
// are posted with a single doorbell (batched posting).
func (c *Channel) Send(msg []byte) error {
	if c.closed || !c.connected {
		return ErrChanClosed
	}
	if len(msg) > c.cfg.BufferSize {
		return fmt.Errorf("%w: %d > %d", ErrMessageTooBig, len(msg), c.cfg.BufferSize)
	}
	if c.SendCapacity() <= 0 {
		c.wantSend = true
		return ErrWouldBlock
	}
	// Zero-length messages ride a pool slot (a WR must carry either
	// inline bytes or a region reference).
	inline := len(msg) > 0 && len(msg) <= c.inlineMax
	if !inline && len(c.freeSend) == 0 {
		c.wantSend = true
		return ErrWouldBlock
	}
	c.sendSeq++
	seq := c.sendSeq
	// Selective signaling, with a forced signal when resources run low so
	// slot reclamation cannot stall behind an idle interval.
	signaled := seq%uint64(c.cfg.SignalInterval) == 0 ||
		c.SendCapacity() <= 2 || (!inline && len(c.freeSend) <= 1)

	if c.wrs == nil {
		c.wrs = make([]rdma.SendWR, c.cfg.SendWRs)
	}
	wr := &c.wrs[seq%uint64(c.cfg.SendWRs)]
	wr.ID, wr.Op, wr.Signaled = seq, rdma.OpSend, signaled
	wr.MR, wr.Offset, wr.Length, wr.Inline = nil, 0, 0, nil
	slot := -1
	if inline {
		// The one copy of an inline send, into the WR's own storage: the
		// caller's buffer is free the moment Send returns.
		wr.StageInline(msg)
	} else {
		slot = c.freeSend[len(c.freeSend)-1]
		c.freeSend = c.freeSend[:len(c.freeSend)-1]
		off := slot * c.cfg.BufferSize
		// Zero-copy send: the pool region is registered, so staging
		// the application bytes costs no modeled CPU copy (Section IV:
		// the application's send buffer is registered directly).
		copy(c.sendMR.Slice(off, len(msg)), msg)
		wr.MR = c.sendMR
		wr.Offset = off
		wr.Length = len(msg)
	}
	c.inFlight.Push(pendingSlot{seq: seq, slot: slot})
	c.pendingWRs.Push(wr)
	c.armFlush()
	return nil
}

// armFlush schedules a doorbell at the end of the current event turn so
// that consecutive sends share one posting batch.
func (c *Channel) armFlush() {
	if c.flushArmed {
		return
	}
	c.flushArmed = true
	c.node().Loop().Post(c.flushFn)
}

func (c *Channel) flushTurn() {
	c.flushArmed = false
	c.Flush()
}

// Flush posts all queued sends immediately, PostBatch WRs per doorbell.
func (c *Channel) Flush() {
	for c.pendingWRs.Len() > 0 && !c.closed {
		batch := c.postBuf[:0]
		for c.pendingWRs.Len() > 0 && len(batch) < c.cfg.PostBatch {
			batch = append(batch, c.pendingWRs.Pop())
		}
		c.postBuf = batch
		if err := c.qp.PostSend(batch...); err != nil {
			c.fail()
			return
		}
		c.sent += uint64(len(batch))
	}
}

// Receive pops the next received message. ok is false when the inbox is
// empty; the selector reports OpReceive readiness while messages wait.
func (c *Channel) Receive() ([]byte, bool) {
	if c.inbox.Len() == 0 {
		if c.key != nil {
			c.key.ResetReady(OpReceive)
		}
		return nil, false
	}
	msg := c.inbox.Pop()
	if c.inbox.Len() == 0 && c.key != nil {
		c.key.ResetReady(OpReceive)
	}
	return msg, true
}

// Close tears the channel down locally and cancels its selection key.
func (c *Channel) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.connected = false
	c.release()
	if c.key != nil {
		c.key.Cancel()
	}
}

// release gives up what a channel closed for good holds: its QP, with its
// place in the selector's QPN table and its share of the CQ pair, and its
// buffer pools, so the device does not keep them registered for its
// lifetime.
func (c *Channel) release() {
	if c.qp != nil {
		c.sel.detach(c)
	}
	if c.sendMR != nil {
		c.sendMR.Deregister()
		c.recvMR.Deregister()
	}
}

// Closed reports whether Close was called or the QP failed.
func (c *Channel) Closed() bool { return c.closed }

func (c *Channel) fail() {
	c.closed = true
	c.connected = false
	c.release()
	if c.key != nil {
		c.key.signal(OpReceive) // surface the failure to the event loop
	}
}

// onSendCompletion processes signaled send CQEs: a completion with
// sequence number s releases every pool slot with seq <= s (selective
// signaling reclaims in batches).
func (c *Channel) onSendCompletion(cqe rdma.CQE) {
	if cqe.Status != rdma.StatusOK {
		c.fail()
		return
	}
	c.signaled++
	released := 0
	for c.inFlight.Len() > 0 && c.inFlight.Front().seq <= cqe.WRID {
		if s := c.inFlight.Pop().slot; s >= 0 {
			c.freeSend = append(c.freeSend, s)
		}
		released++
	}
	if released > 0 && c.wantSend {
		c.wantSend = false
		if c.key != nil {
			c.key.signal(OpSend)
		}
	}
}
