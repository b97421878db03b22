package transport

import (
	"bytes"
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/rdma"
	"rubin/internal/rubin"
	"rubin/internal/sim"
)

// rdmaStack is the RUBIN backend: one RDMA device and one RUBIN selector
// per node, all connections multiplexed on the node's app thread —
// the drop-in replacement for the NIO stack that the paper integrates into
// Reptor.
type rdmaStack struct {
	node *fabric.Node
	opts Options
	dev  *rdma.Device
	sel  *rubin.Selector
}

func newRDMAStack(node *fabric.Node, opts Options) *rdmaStack {
	dev := rdma.OpenDevice(node)
	s := &rdmaStack{node: node, opts: opts, dev: dev, sel: rubin.NewSelector(dev)}
	s.sel.Select(s.dispatch)
	return s
}

func (s *rdmaStack) Node() *fabric.Node { return s.node }
func (s *rdmaStack) Kind() Kind         { return KindRDMA }

// chanConfig sizes RUBIN channels from the stack options.
func (s *rdmaStack) chanConfig() rubin.Config {
	cfg := rubin.DefaultConfig(s.node.Network().Params())
	cfg.SendWRs = s.opts.WRs
	cfg.RecvWRs = s.opts.WRs
	cfg.BufferSize = s.opts.MaxMessage
	cfg.PostBatch = s.opts.Batch
	return cfg
}

func (s *rdmaStack) Listen(port int, accept func(Conn)) error {
	srv, err := rubin.Listen(s.sel, port, s.chanConfig())
	if err != nil {
		return err
	}
	s.sel.Register(srv, rubin.OpConnect, accept)
	return nil
}

func (s *rdmaStack) Dial(remote *fabric.Node, port int, done func(Conn, error)) {
	_, err := rubin.Connect(s.sel, remote, port, s.chanConfig(), func(ch *rubin.Channel, err error) {
		if err != nil {
			done(nil, err)
			return
		}
		done(s.wrap(ch), nil)
	})
	if err != nil {
		done(nil, err)
	}
}

func (s *rdmaStack) wrap(ch *rubin.Channel) *rdmaConn {
	rc := &rdmaConn{stack: s, ch: ch}
	rc.key = s.sel.Register(ch, rubin.OpReceive, rc)
	return rc
}

// dispatch is the stack's single RUBIN selector loop.
func (s *rdmaStack) dispatch(keys []*rubin.SelectionKey) {
	for _, k := range keys {
		switch ch := k.Channel().(type) {
		case *rubin.ServerChannel:
			if k.Ready()&rubin.OpConnect != 0 {
				accept, _ := k.Attachment().(func(Conn))
				for {
					c := ch.Accept()
					if c == nil {
						break
					}
					rc := s.wrap(c)
					if accept != nil {
						accept(rc)
					}
				}
			}
		case *rubin.Channel:
			rc, _ := k.Attachment().(*rdmaConn)
			if rc == nil {
				k.ResetReady(k.Ready())
				continue
			}
			if k.Ready()&rubin.OpReceive != 0 {
				rc.drain()
			}
			if k.Ready()&rubin.OpSend != 0 {
				k.ResetReady(rubin.OpSend)
				k.SetInterest(rubin.OpReceive)
				rc.retry()
			}
		}
	}
}

// rdmaConn maps transport messages 1:1 onto RUBIN channel messages (the
// channel is message-oriented already, so no framing is needed) and spills
// into an overflow queue under backpressure.
type rdmaConn struct {
	connCore
	stack *rdmaStack
	ch    *rubin.Channel
	key   *rubin.SelectionKey

	overflow sim.Queue[[]byte]
}

var _ Conn = (*rdmaConn)(nil)

func (c *rdmaConn) Kind() Kind { return KindRDMA }

func (c *rdmaConn) Peer() *fabric.Node { return c.ch.Peer() }

// Unsent counts messages spilled past the work-request pool. Messages the
// channel already owns WRs for are NIC-queued, not software backlog.
func (c *rdmaConn) Unsent() int { return c.overflow.Len() }

func (c *rdmaConn) Send(msg []byte) error {
	if c.closed || c.ch.Closed() {
		return ErrClosed
	}
	if len(msg) > c.stack.opts.MaxMessage {
		return fmt.Errorf("%w: %d", ErrTooBig, len(msg))
	}
	if c.overflow.Len() > 0 {
		c.overflow.Push(bytes.Clone(msg))
		return nil
	}
	err := c.ch.Send(msg)
	if err == rubin.ErrWouldBlock {
		c.overflow.Push(bytes.Clone(msg))
		c.key.SetInterest(rubin.OpReceive | rubin.OpSend)
		return nil
	}
	if err != nil {
		return err
	}
	return nil
}

// retry drains the overflow queue once send capacity returns.
func (c *rdmaConn) retry() {
	drained := false
	for c.overflow.Len() > 0 {
		err := c.ch.Send(*c.overflow.Front())
		if err == rubin.ErrWouldBlock {
			c.key.SetInterest(rubin.OpReceive | rubin.OpSend)
			return
		}
		if err != nil {
			c.teardown(c.key)
			return
		}
		c.overflow.Pop()
		drained = true
	}
	if drained && c.onDrain != nil {
		c.onDrain()
	}
}

func (c *rdmaConn) drain() {
	node := c.stack.node
	params := node.Network().Params()
	for {
		msg, ok := c.ch.Receive()
		if !ok {
			break
		}
		if c.ch.Closed() {
			c.teardown(c.key)
			return
		}
		// Per-message handler dispatch on the app thread (cheaper than
		// TCP's: the channel is already message-oriented).
		node.App.Delay(params.Selector.MsgHandle)
		c.deliver(msg)
	}
	if c.ch.Closed() {
		c.teardown(c.key)
	}
}

func (c *rdmaConn) Close() {
	if c.closed {
		return
	}
	c.ch.Close()
	c.teardown(c.key)
}
