package rubin_test

import (
	"runtime"
	"testing"

	"rubin/internal/fabric"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/pbft"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// allocatedBy returns the heap bytes fn allocates (live or not).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// connectionSetup returns what a fabric of two nodes, a stack of the given
// kind on each and one established connection between them allocate.
func connectionSetup(t *testing.T, kind transport.Kind) uint64 {
	t.Helper()
	return allocatedBy(func() {
		loop := sim.NewLoop(1)
		nw := fabric.New(loop, model.Default())
		a, b := nw.AddNode("a"), nw.AddNode("b")
		nw.Connect(a, b)
		sa, err := transport.NewStack(kind, a, transport.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		sb, err := transport.NewStack(kind, b, transport.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		var client, server transport.Conn
		if err := sb.Listen(9, func(c transport.Conn) { server = c }); err != nil {
			t.Fatal(err)
		}
		loop.Post(func() {
			sa.Dial(b, 9, func(c transport.Conn, err error) { client = c })
		})
		loop.Run()
		if client == nil || server == nil {
			t.Fatal("connection not established")
		}
	})
}

// TestTCPSetupAllocatesNoBuffers is the tcp-nio twin of the gate below: a
// connection's socket and user buffers grow with its first traffic, so
// Listen + Dial allocates a dozen KiB of records and rings (12 232 bytes
// when written). While each tcpConn was born with a 64 KiB read buffer the
// same set-up allocated 143 080 bytes, two such buffers of it — an eager
// per-connection buffer put back fails here before it shows in setup_s.
func TestTCPSetupAllocatesNoBuffers(t *testing.T) {
	conn := connectionSetup(t, transport.KindTCP)
	if conn >= 32<<10 {
		t.Errorf("tcp-nio Listen + Dial allocated %d bytes, want < %d", conn, 32<<10)
	}
	t.Logf("tcp-nio Listen + Dial allocated %d bytes", conn)
}

// TestRDMASetupDoesNotBackPools is the gate that keeps eager region
// backing out: registering a channel's buffer pools charges virtual time
// but must not allocate them. With every pool backed at registration one
// rdma-rubin connection allocated 64 MiB (2 endpoints × 2 pools × 64 ×
// 256 KiB) and a 4-replica group 768 MiB before its first message (1.8 GiB
// with four clients dialled in); the bounds sit far above what set-up really
// needs and below a single pool.
func TestRDMASetupDoesNotBackPools(t *testing.T) {
	const MiB = 1 << 20
	conn := connectionSetup(t, transport.KindRDMA)
	if conn >= MiB {
		t.Errorf("rdma-rubin Listen + Dial allocated %.1f MiB, want < 1", float64(conn)/MiB)
	}
	t.Logf("rdma-rubin Listen + Dial allocated %.3f MiB", float64(conn)/MiB)

	cluster := allocatedBy(func() {
		c, err := pbft.NewCluster(transport.KindRDMA, pbft.DefaultConfig(), model.Default(), 1,
			func(int) pbft.Application { return kvstore.New() })
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Start(); err != nil {
			t.Fatal(err)
		}
	})
	if cluster >= 16*MiB {
		t.Errorf("pbft.NewCluster + Start (N=4, rdma-rubin) allocated %.1f MiB, want < 16", float64(cluster)/MiB)
	}
	t.Logf("pbft.NewCluster + Start (N=4, rdma-rubin) allocated %.3f MiB", float64(cluster)/MiB)
}
