package msgnet

import (
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// The send-path alloc probe, called by TestSendAllocsSteadyState and by
// benchmark/probes.go's msgnet.probe_send_allocs: it measures the
// steady-state allocations of the send hot path over an inert substrate
// connection, so the reported numbers isolate this layer from transport
// internals. The probe runs a private mesh on a private loop; it never
// touches shared state.

// nullConn is an inert transport.Conn: Send accepts and discards every
// frame, mimicking a substrate that copies synchronously (as both real
// backends do) without allocating. It implements what a peer's send path
// and Mesh.wrap call; the rest (Peer, Close) is the embedded nil
// interface, which panics if the probe ever comes to depend on it.
type nullConn struct{ transport.Conn }

func (c *nullConn) Send([]byte) error      { return nil }
func (c *nullConn) OnMessage(func([]byte)) {}
func (c *nullConn) OnClose(func())         {}
func (c *nullConn) OnDrain(func())         {}
func (c *nullConn) Unsent() int            { return 0 }

// SendAllocsPerOp reports the average allocations of one Peer.Send of a
// payloadLen-byte message plus the scheduler turns that drain it to the
// substrate, after warming the pools into steady state. Payloads above
// the transport MaxMessage exercise the chunked path.
func SendAllocsPerOp(runs, payloadLen int) float64 {
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	node := nw.AddNode("alloc-probe")
	m := newMesh(node, nil, DefaultOptions())
	p := m.wrap(&nullConn{})
	msg := make([]byte, payloadLen)
	warm := func() {
		if err := p.Send(ClassControl, msg); err != nil {
			panic("msgnet: alloc probe send failed: " + err.Error())
		}
		loop.Run()
	}
	// Warm up: grow the pools, queue backing arrays and the loop's event
	// free list to their steady-state footprint.
	for i := 0; i < 32; i++ {
		warm()
	}
	return testing.AllocsPerRun(runs, warm)
}
