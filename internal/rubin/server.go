package rubin

import (
	"fmt"

	"rubin/internal/fabric"
	"rubin/internal/rdma"
	"rubin/internal/sim"
)

// ServerChannel accepts inbound RDMA connections on a CM port, queueing
// established channels until the application calls Accept. Incoming
// connections surface as OpConnect readiness on its selection key.
type ServerChannel struct {
	backlog sim.Queue[*Channel]
	key     *SelectionKey
	nextID  *uint64
	err     error
}

// Listen opens a server channel on the device. Each accepted connection
// gets its own channel built from cfg.
func Listen(dev *rdma.Device, port int, cfg Config) (*ServerChannel, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var idCounter uint64
	sc := &ServerChannel{nextID: &idCounter}
	pd := dev.AllocPD()

	// Each inbound handshake needs a fresh channel (with its own CQs)
	// before the QP exists, so the config factory creates it and the
	// establishment callback finishes it.
	var pending sim.Queue[*Channel]
	err := dev.ListenCM(port, pd, func() rdma.QPConfig {
		*sc.nextID++
		ch, err := newChannel(dev, cfg, *sc.nextID)
		if err != nil {
			// Config was validated above; a failure here is a bug.
			panic(fmt.Sprintf("rubin: newChannel: %v", err))
		}
		pending.Push(ch)
		return ch.qpConfig()
	}, func(qp *rdma.QP) {
		if pending.Len() == 0 {
			return
		}
		ch := pending.Pop()
		if err := ch.finishSetup(qp); err != nil {
			sc.err = err
			return
		}
		sc.backlog.Push(ch)
		sc.key.signal(OpConnect)
	})
	if err != nil {
		return nil, err
	}
	return sc, nil
}

func (sc *ServerChannel) bindKey(k *SelectionKey) { sc.key = k }

func (sc *ServerChannel) readiness() InterestOps {
	if sc.backlog.Len() > 0 {
		return OpConnect
	}
	return 0
}

// Accept dequeues one established inbound channel, or nil if none waits.
// The caller must register the returned channel with a selector to
// receive messages on it.
func (sc *ServerChannel) Accept() *Channel {
	if sc.backlog.Len() == 0 {
		if sc.key != nil {
			sc.key.ResetReady(OpConnect)
		}
		return nil
	}
	ch := sc.backlog.Pop()
	if sc.backlog.Len() == 0 && sc.key != nil {
		sc.key.ResetReady(OpConnect)
	}
	return ch
}

// Err returns the first setup error encountered while accepting, if any.
func (sc *ServerChannel) Err() error { return sc.err }

// Connect opens a channel to a server channel listening on the remote
// node. Establishment is signaled as OpAccept readiness if the channel is
// registered with interest OpAccept, and via the optional done callback.
func Connect(dev *rdma.Device, remote *fabric.Node, port int, cfg Config, done func(*Channel, error)) (*Channel, error) {
	var id uint64 // client-side IDs come from the selector key instead
	ch, err := newChannel(dev, cfg, id)
	if err != nil {
		return nil, err
	}
	pd := dev.AllocPD()
	dev.ConnectCM(remote, port, pd, ch.qpConfig(), func(qp *rdma.QP, err error) {
		if err != nil {
			ch.closed = true
			if done != nil {
				done(nil, err)
			}
			ch.key.signal(OpAccept)
			return
		}
		if err := ch.finishSetup(qp); err != nil {
			ch.closed = true
			if done != nil {
				done(nil, err)
			}
			ch.key.signal(OpAccept)
			return
		}
		if done != nil {
			done(ch, nil)
		}
		ch.key.signal(OpAccept)
	})
	return ch, nil
}

func (c *Channel) bindKey(k *SelectionKey) {
	c.key = k
	c.id = k.id
}

func (c *Channel) readiness() InterestOps {
	var r InterestOps
	if c.inbox.Len() > 0 {
		r |= OpReceive
	}
	if c.connected && c.SendCapacity() > 0 {
		r |= OpSend
	}
	if c.connected {
		r |= OpAccept
	}
	return r
}
