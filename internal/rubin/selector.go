package rubin

import (
	"rubin/internal/rdma"
	"rubin/internal/sim"
)

// InterestOps is the bitmask of events a RUBIN selection key watches —
// the four interests of paper Section III-B.
type InterestOps uint8

// Interest/readiness bits.
const (
	// OpConnect: an incoming connection request arrived at a
	// ServerChannel.
	OpConnect InterestOps = 1 << iota
	// OpAccept: an outbound connection establishment completed.
	OpAccept
	// OpReceive: a message arrived and is ready for Receive.
	OpReceive
	// OpSend: send capacity became available after exhaustion.
	OpSend
)

// Registrable is a channel type accepted by Selector.Register.
type Registrable interface {
	bindKey(k *SelectionKey)
	readiness() InterestOps
}

// event is one element of the hybrid event queue, carrying either a
// connection notification or a completion notification for a channel
// (paper Figure 2: copies of event-channel and completion-queue elements
// merge into one queue).
type event struct {
	key *SelectionKey
	ops InterestOps
}

// Selector multiplexes RDMA connection and completion events from many
// channels onto the node's one application thread (fabric.Node.App),
// mirroring the Java NIO selector's role in BFT frameworks: event dispatch,
// receive copies and the channels' verbs work all serialize there.
type Selector struct {
	dev *rdma.Device

	// The completion half of the hybrid event queue: every channel made for
	// this selector completes to one send CQ and one receive CQ, so a
	// wake-up and a poll serve all the channels with completions. byQPN
	// hands each CQE to its channel: attach covers a QPN before its QP can
	// complete, and a slot is nil once its channel closed, even for the
	// CQEs a drain already polled. rxWoken lists the channels one receive
	// drain gave their first pending CQE, good until the next drain.
	sendCQ, recvCQ *rdma.CQ
	byQPN          []*Channel
	rxWoken        []*Channel

	keys    []*SelectionKey
	nextKey uint64

	// The hybrid event queue and its event-manager state. dispatch admits
	// one select turn at a time, so the turn's callback is bound once and
	// its ready list is one slice, good until the next turn.
	hybridQ    []event
	dispatch   bool
	dispatchFn func() // s.dispatchTurn
	turn       uint64 // stamps keys already taken this turn
	ready      []*SelectionKey
	handler    func([]*SelectionKey)

	// Stats.
	events  uint64
	wakeups uint64
}

// NewSelector creates a selector on a device's node, with the CQ pair its
// channels complete to.
func NewSelector(dev *rdma.Device) *Selector {
	s := &Selector{dev: dev, sendCQ: dev.CreateCQ(1), recvCQ: dev.CreateCQ(1)}
	s.dispatchFn = s.dispatchTurn
	// RUBIN's event manager reads completion events much more cheaply than
	// the default event-channel path (the heavy application wakeup is the
	// select dispatch, charged separately).
	const eventCost = 2 * sim.Microsecond
	s.sendCQ.SetEventCost(eventCost)
	s.recvCQ.SetEventCost(eventCost)
	s.sendCQ.OnEvent(s.drainSendCQ)
	s.recvCQ.OnEvent(s.drainRecvCQ)
	s.sendCQ.RequestNotify()
	s.recvCQ.RequestNotify()
	return s
}

// attach enters a set-up channel in the QPN table and grows the CQ pair by
// what the channel can have outstanding: a completion per work request, and
// on the send side the one error completion its QP can raise besides.
func (s *Selector) attach(c *Channel) {
	n := int(c.qp.Num())
	for len(s.byQPN) <= n {
		s.byQPN = append(s.byQPN, nil)
	}
	s.byQPN[n] = c
	s.sendCQ.Resize(s.sendCQ.Capacity() + c.cfg.SendWRs + 1)
	s.recvCQ.Resize(s.recvCQ.Capacity() + c.cfg.RecvWRs)
}

// detach takes a closed channel out of the table and gives its share of the
// CQ pair back. Its QP is destroyed first, which takes the completions it
// left unpolled off the CQs, so the shrunken pair still cannot overrun.
func (s *Selector) detach(c *Channel) {
	n := int(c.qp.Num())
	if n >= len(s.byQPN) || s.byQPN[n] != c {
		return
	}
	c.qp.Destroy()
	s.byQPN[n] = nil
	s.sendCQ.Resize(s.sendCQ.Capacity() - c.cfg.SendWRs - 1)
	s.recvCQ.Resize(s.recvCQ.Capacity() - c.cfg.RecvWRs)
}

// drainSendCQ is one wake-up for every channel's send completions: each
// signaled CQE releases its channel's covered slots.
func (s *Selector) drainSendCQ() {
	var cqes [16]rdma.CQE
	for {
		n := s.sendCQ.Poll(cqes[:])
		if n == 0 {
			break
		}
		for _, cqe := range cqes[:n] {
			if c := s.byQPN[cqe.QPN]; c != nil {
				c.onSendCompletion(cqe)
			}
		}
	}
	s.sendCQ.RequestNotify()
}

// drainRecvCQ is one wake-up for every channel's receive completions: each
// CQE joins its channel's receive pipeline, and every channel that had none
// pending starts a burst.
func (s *Selector) drainRecvCQ() {
	var cqes [16]rdma.CQE
	woken := s.rxWoken[:0]
	for {
		n := s.recvCQ.Poll(cqes[:])
		if n == 0 {
			break
		}
		for _, cqe := range cqes[:n] {
			c := s.byQPN[cqe.QPN]
			if c == nil {
				continue
			}
			// A channel with CQEs pending has a burst in flight, whose
			// end pumps again.
			if c.rxPending.Len() == 0 {
				woken = append(woken, c)
			}
			c.rxPending.Push(cqe)
		}
	}
	s.recvCQ.RequestNotify()
	s.rxWoken = woken
	for _, c := range woken {
		c.pumpRx()
	}
}

// Register attaches a channel with an interest set, returning its
// selection key (a "selectable channel" per the paper).
func (s *Selector) Register(ch Registrable, ops InterestOps, attachment any) *SelectionKey {
	s.nextKey++
	k := &SelectionKey{sel: s, ch: ch, id: s.nextKey, interest: ops, attachment: attachment}
	s.keys = append(s.keys, k)
	ch.bindKey(k)
	if r := ch.readiness() & ops; r != 0 {
		k.ready |= r
		s.push(event{key: k, ops: r})
	}
	return k
}

// push adds an event to the hybrid queue; the event manager then notifies
// a pending select (paper Figure 2, steps 4–5).
func (s *Selector) push(ev event) {
	if ev.key == nil || ev.key.canceled {
		return
	}
	s.hybridQ = append(s.hybridQ, ev)
	s.events++
	s.pump()
}

// Select installs the readiness handler (the select() invocation of paper
// Figure 2, step 3: it "blocks" until events arrive). The same contract
// as the NIO selector applies: the handler must consume or clear every
// ready+interesting bit or the dispatch loop spins, like any
// level-triggered event loop. The keys slice is reused by the next turn.
func (s *Selector) Select(handler func([]*SelectionKey)) {
	s.handler = handler
	s.pump()
}

// takeReady drains the currently ready keys into the slice the next turn
// reuses.
func (s *Selector) takeReady() []*SelectionKey {
	if len(s.hybridQ) == 0 {
		return nil
	}
	// Match events to interested keys (ID comparison per the paper);
	// deduplicate to one entry per key preserving first-event order.
	s.turn++
	keys := s.ready[:0]
	for _, ev := range s.hybridQ {
		k := ev.key
		if k.canceled || k.ready&k.interest == 0 || k.turn == s.turn {
			continue
		}
		k.turn = s.turn
		keys = append(keys, k)
	}
	s.hybridQ = s.hybridQ[:0]
	s.ready = keys
	return keys
}

func (s *Selector) pump() {
	if s.handler == nil || s.dispatch || len(s.hybridQ) == 0 {
		return
	}
	s.dispatch = true
	// The event-manager notification plus key matching: RUBIN's
	// select() path, slower than the native epoll-backed NIO selector
	// (paper Section IV notes native code as future work).
	node := s.dev.Node()
	node.App.Acquire(node.Network().Params().Selector.RubinDispatch, s.dispatchFn)
}

// dispatchTurn is one select turn: hand the ready keys to the handler, then
// re-queue whichever it left ready and interesting (level-triggered).
func (s *Selector) dispatchTurn() {
	s.dispatch = false
	keys := s.takeReady()
	if len(keys) == 0 || s.handler == nil {
		return
	}
	s.wakeups++
	s.handler(keys)
	for _, k := range keys {
		if !k.canceled && k.ready&k.interest != 0 {
			s.hybridQ = append(s.hybridQ, event{key: k, ops: k.ready & k.interest})
		}
	}
	s.pump()
}

// SelectionKey ties a channel to a selector; its unique ID characterizes
// the connection (paper Section III-B).
type SelectionKey struct {
	sel        *Selector
	ch         Registrable
	id         uint64
	interest   InterestOps
	ready      InterestOps
	attachment any
	canceled   bool
	turn       uint64 // the selector turn that last took this key
}

// Channel returns the registered channel (a *Channel or *ServerChannel).
func (k *SelectionKey) Channel() Registrable { return k.ch }

// Attachment returns the object attached at registration.
func (k *SelectionKey) Attachment() any { return k.attachment }

// SetInterest replaces the interest set, re-evaluating readiness.
func (k *SelectionKey) SetInterest(ops InterestOps) {
	k.interest = ops
	if r := k.ch.readiness() & ops; r != 0 {
		k.ready |= r
		k.sel.push(event{key: k, ops: r})
	}
}

// Ready returns the ready set.
func (k *SelectionKey) Ready() InterestOps { return k.ready }

// ResetReady clears readiness bits once handled.
func (k *SelectionKey) ResetReady(ops InterestOps) { k.ready &^= ops }

// Cancel removes the key from the selector.
func (k *SelectionKey) Cancel() {
	if k.canceled {
		return
	}
	k.canceled = true
	for i, other := range k.sel.keys {
		if other == k {
			k.sel.keys = append(k.sel.keys[:i], k.sel.keys[i+1:]...)
			break
		}
	}
}

// markReady sets bits without queueing an event (the caller queues).
func (k *SelectionKey) markReady(ops InterestOps) { k.ready |= ops }

// signal sets bits and queues a hybrid event if the key is interested.
func (k *SelectionKey) signal(ops InterestOps) {
	if k == nil || k.canceled {
		return
	}
	k.ready |= ops
	if ops&k.interest != 0 {
		k.sel.push(event{key: k, ops: ops})
	}
}
