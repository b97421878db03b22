package main

import (
	"fmt"
	"runtime"
	"time"

	"rubin/internal/auth"
	"rubin/internal/fabric"
	"rubin/internal/model"
	"rubin/internal/msgnet"
	"rubin/internal/pbft"
	"rubin/internal/rdma"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// The micro-probes time single layers through their public functions, on
// the host clock, outside any workload. They give the traced run a unit
// cost per layer; multiplied by a workload's counts they become the
// host.est_share.* estimates. Each probe takes the median of probeRounds
// rounds so one scheduler hiccup does not decide the number.
const probeRounds = 5

func medianOf(rounds int, fn func() float64) float64 {
	vals := make([]float64, rounds)
	for i := range vals {
		vals[i] = fn()
	}
	return median(vals)
}

// perCall returns the wall nanoseconds of one fn call, averaged over n.
func perCall(n int, fn func()) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n)
}

// runProbes executes every probe and returns its metrics.
func runProbes() (map[string]float64, error) {
	out := map[string]float64{}
	probeSim(out)
	probeAuth(out)
	probeCodec(out)
	probeRegisterMR(out)
	for _, kind := range []transport.Kind{transport.KindTCP, transport.KindRDMA} {
		if err := probeTransport(out, kind); err != nil {
			return nil, fmt.Errorf("transport probe %s: %w", kind, err)
		}
	}
	if err := probeMsgnet(out); err != nil {
		return nil, fmt.Errorf("msgnet probe: %w", err)
	}
	return out, nil
}

// probeSim times arming and firing one event on a 1k-deep heap.
func probeSim(out map[string]float64) {
	loop := sim.NewLoop(1)
	for i := 0; i < 1000; i++ {
		loop.At(sim.Time(1)<<50+sim.Time(i), func() {})
	}
	nop := func() {}
	out["sim.probe_ns_per_event"] = medianOf(probeRounds, func() float64 {
		return perCall(100000, func() {
			loop.After(sim.Time(loop.Rand().Intn(1000)), nop)
			loop.Step()
		})
	})
}

func probeAuth(out map[string]float64) {
	kr := auth.GenerateKeyrings(4, 1)[0]
	small := make([]byte, 256)
	big := make([]byte, 64<<10)
	out["auth.probe_mac_host_ns.256"] = medianOf(probeRounds, func() float64 {
		return perCall(5000, func() { kr.MAC(1, small) })
	})
	out["auth.probe_authenticate_host_ns.n4"] = medianOf(probeRounds, func() float64 {
		return perCall(2000, func() { kr.Authenticate(small) })
	})
	out["auth.probe_hash_host_ns_per_kb"] = medianOf(probeRounds, func() float64 {
		return perCall(200, func() { auth.Hash(big) }) / 64
	})
}

// probeCodec times Encode+Decode of an 8-request pre-prepare at 128 B and
// at 32 KiB per request, per KiB of encoded message.
func probeCodec(out map[string]float64) {
	var encoded int
	msgs := make([]pbft.Message, 0, 2)
	for _, size := range []int{128, 32 << 10} {
		batch := make([]pbft.Request, 8)
		for i := range batch {
			batch[i] = pbft.Request{Client: 100, Timestamp: uint64(i + 1), Op: make([]byte, size)}
		}
		pp := pbft.PrePrepare{View: 1, Seq: 7, Digest: pbft.BatchDigest(batch), Batch: batch}
		msgs = append(msgs, pp)
		encoded += len(pbft.Encode(pp))
	}
	out["pbft.probe_codec_host_ns_per_kb"] = medianOf(probeRounds, func() float64 {
		return perCall(200, func() {
			for _, m := range msgs {
				if _, err := pbft.Decode(pbft.Encode(m)); err != nil {
					panic(err) // the codec cannot reject its own output
				}
			}
		}) / (float64(encoded) / 1024)
	})
}

func probeRegisterMR(out map[string]float64) {
	loop := sim.NewLoop(1)
	pd := rdma.OpenDevice(fabric.New(loop, model.Default()).AddNode("mr-probe")).AllocPD()
	out["rdma.register_mr_host_us.8m"] = medianOf(probeRounds, func() float64 {
		return perCall(1, func() {
			pd.RegisterMR(8<<20, rdma.AccessLocalWrite, nil).Deregister()
		}) / 1e3
	})
}

// probeTransport measures one backend: the host cost of a Dial + accept
// pair, then ping-pong echoes (window 1) at 1 KiB and 32 KiB on both
// clocks.
func probeTransport(out map[string]float64, kind transport.Kind) error {
	prefix := "transport." + string(kind)
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	cn, sn := nw.AddNode("client"), nw.AddNode("server")
	nw.Connect(cn, sn)
	cs, err := transport.NewStack(kind, cn, transport.DefaultOptions())
	if err != nil {
		return err
	}
	ss, err := transport.NewStack(kind, sn, transport.DefaultOptions())
	if err != nil {
		return err
	}
	var conns []transport.Conn
	if err := ss.Listen(9, func(c transport.Conn) {
		c.OnMessage(func(msg []byte) { _ = c.Send(msg) }) // a lost echo stalls the probe below
	}); err != nil {
		return err
	}
	var dialErr error
	dial := func() float64 {
		return perCall(1, func() {
			loop.Post(func() {
				cs.Dial(sn, 9, func(c transport.Conn, err error) {
					conns = append(conns, c)
					if err != nil {
						dialErr = err
					}
				})
			})
			loop.Run()
		})
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	dial()
	runtime.ReadMemStats(&ms1)
	out[prefix+".dial_alloc_mb"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
	out[prefix+".dial_host_ms"] = medianOf(probeRounds, dial) / 1e6
	if dialErr != nil {
		return dialErr
	}
	conn := conns[0]
	for _, sz := range []struct {
		label string
		bytes int
		n     int
	}{{"1k", 1 << 10, 2000}, {"32k", 32 << 10, 200}} {
		msg := make([]byte, sz.bytes)
		echoed := 0
		conn.OnMessage(func([]byte) {
			echoed++
			if echoed%sz.n != 0 {
				_ = conn.Send(msg)
			}
		})
		var virt sim.Time
		host := medianOf(probeRounds, func() float64 {
			v0, t0, e0 := loop.Now(), time.Now(), echoed
			if err := conn.Send(msg); err != nil {
				return 0
			}
			loop.Run()
			if echoed-e0 != sz.n {
				dialErr = fmt.Errorf("%d of %d probe echoes returned", echoed-e0, sz.n)
			}
			virt = (loop.Now() - v0) / sim.Time(sz.n)
			return float64(time.Since(t0).Nanoseconds()) / float64(sz.n)
		})
		out[prefix+".echo_host_ns_per_msg."+sz.label] = host
		out[prefix+".echo_virtual_rtt_us."+sz.label] = virt.Micros()
	}
	return dialErr
}

// probeMsgnet times Peer.Send alone (the enqueue: framing, copy into the
// pooled buffer, arming the scheduler) at 1 KiB and at 1 MiB, where the
// message is chunked; the queue drains outside the timed region. A round
// queues at most 2 MiB: at the seed commit eight back-to-back 1 MiB bulk
// sends wedge a tcp-nio peer (four arrive, the loop drains, 3.4 MB stay
// queued for good) — see README.md, observations.
func probeMsgnet(out map[string]float64) error {
	loop := sim.NewLoop(1)
	nw := fabric.New(loop, model.Default())
	an, bn := nw.AddNode("a"), nw.AddNode("b")
	nw.Connect(an, bn)
	am, err := msgnet.NewMesh(transport.KindTCP, an, msgnet.DefaultOptions())
	if err != nil {
		return err
	}
	bm, err := msgnet.NewMesh(transport.KindTCP, bn, msgnet.DefaultOptions())
	if err != nil {
		return err
	}
	if err := bm.Listen(9, func(p *msgnet.Peer) { p.OnMessage(func(msgnet.Class, []byte) {}) }); err != nil {
		return err
	}
	var peer *msgnet.Peer
	var sendErr error
	loop.Post(func() {
		am.Dial(bn, 9, func(p *msgnet.Peer, err error) { peer, sendErr = p, err })
	})
	loop.Run()
	if sendErr != nil {
		return sendErr
	}
	for _, sz := range []struct {
		label string
		bytes int
		n     int
	}{{"1k", 1 << 10, 1000}, {"1m", 1 << 20, 2}} {
		msg := make([]byte, sz.bytes)
		out["msgnet.probe_send_host_ns."+sz.label] = medianOf(probeRounds, func() float64 {
			ns := perCall(sz.n, func() {
				if err := peer.Send(msgnet.ClassBulk, msg); err != nil {
					sendErr = err
				}
			})
			loop.Run()
			if peer.QueueBytes() != 0 {
				sendErr = fmt.Errorf("%d bytes still queued after the loop drained", peer.QueueBytes())
			}
			return ns
		})
	}
	out["msgnet.probe_send_allocs.1k"] = msgnet.SendAllocsPerOp(100, 1<<10)
	return sendErr
}
