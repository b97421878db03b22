package bench

import (
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"rubin/internal/model"
	"rubin/internal/msgnet"
	"rubin/internal/pbft"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// TestCheckFailsOnRejectedInboundFrame: a replica's mesh that had to reject
// an inbound frame did not run on a healthy network, and the health gate
// says so by the stat's name. An outsider dials replica 1's peer port in
// the middle of a put run and sends one msgnet chunk frame whose digest
// does not match its payload; every put still completes, so before
// msgnet.recv_errors was a gated stat such a run passed silently.
func TestCheckFailsOnRejectedInboundFrame(t *testing.T) {
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		d, err := newPBFT(deploySpec{kind: kind, pbft: pbftConfig(4, 1, 0), seed: 1, conns: 1}, model.Default())
		if err != nil {
			t.Fatal(err)
		}
		if err := d.check(); err != nil {
			t.Fatalf("%s: a started deployment is unhealthy: %v", kind, err)
		}
		const puts = 12
		finished := 0
		d.putLoop(2, 64, func(_, sent int) (string, bool) { return fmt.Sprintf("k%02d", sent), sent < puts },
			func(int, sim.Time) bool { finished++; return true })

		c := d.cluster
		outsider := c.Network.AddNode("outsider")
		c.Network.Connect(outsider, c.Node(1))
		stack, err := transport.NewStack(kind, outsider, msgnet.DefaultOptions().Transport)
		if err != nil {
			t.Fatal(err)
		}
		d.loop.Post(func() {
			stack.Dial(c.Node(1), pbft.PeerPort, func(conn transport.Conn, err error) {
				if err != nil {
					t.Errorf("%s: dial: %v", kind, err)
					return
				}
				// msgnet/frame.go: [kind 2 = chunk][class][stream u64][index u32]
				// [count u32][digest 32][prev 32][payload]. Chunk 0 of 2 on
				// stream 0, its digest left zero — no payload hashes to that.
				frame := make([]byte, 2+8+4+4+32+32+16)
				frame[0], frame[1] = 2, byte(msgnet.ClassBulk)
				binary.BigEndian.PutUint32(frame[14:], 2)
				if err := conn.Send(frame); err != nil {
					t.Errorf("%s: raw send: %v", kind, err)
				}
			})
		})
		d.loop.Run()
		if finished != puts {
			t.Fatalf("%s: %d of %d puts completed", kind, finished, puts)
		}
		if err := d.check(); err == nil || !strings.Contains(err.Error(), "msgnet.recv_errors") {
			t.Errorf("%s: check() = %v, want a failure naming msgnet.recv_errors", kind, err)
		}
	}
}
