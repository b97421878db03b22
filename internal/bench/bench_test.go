package bench

import (
	"testing"

	"rubin/internal/metrics"
	"rubin/internal/model"
	"rubin/internal/sim"
	"rubin/internal/transport"
)

// quickEcho shortens the runs for test time while keeping the shapes.
func quickEcho(payload int) EchoConfig {
	return EchoConfig{Payload: payload, Messages: 200, Warmup: 20, Window: 3, Seed: 1}
}

// runStack measures one Figure 3 point of one echo (echoTCP, echoSendRecv,
// echoOneSided, echoChannel); a failure names its caller's line.
func runStack(t *testing.T, echo func(EchoConfig, model.Params) (EchoResult, error), payload int) EchoResult {
	t.Helper()
	res, err := echo(quickEcho(payload), model.Default())
	if err != nil {
		t.Fatalf("%d B: %v", payload, err)
	}
	if res.MeanRT <= 0 || res.Throughput <= 0 {
		t.Fatalf("degenerate result at %d B: %+v", payload, res)
	}
	return res
}

// TestFig3LatencyOrdering asserts the headline result of Figure 3a: at
// every payload, one-sided Read/Write is fastest, Send/Recv beats TCP,
// and the RUBIN channel beats TCP.
func TestFig3LatencyOrdering(t *testing.T) {
	for _, kb := range []int{1, 4, 16, 64, 100} {
		payload := kb << 10
		tcp := runStack(t, echoTCP, payload)
		sr := runStack(t, echoSendRecv, payload)
		rw := runStack(t, echoOneSided, payload)
		ch := runStack(t, echoChannel, payload)
		if rw.MeanRT >= sr.MeanRT {
			t.Errorf("%dKB: Read/Write (%v) should beat Send/Recv (%v)", kb, rw.MeanRT, sr.MeanRT)
		}
		if sr.MeanRT >= tcp.MeanRT {
			t.Errorf("%dKB: Send/Recv (%v) should beat TCP (%v)", kb, sr.MeanRT, tcp.MeanRT)
		}
		if ch.MeanRT >= tcp.MeanRT {
			t.Errorf("%dKB: Channel (%v) should beat TCP (%v)", kb, ch.MeanRT, tcp.MeanRT)
		}
	}
}

// TestFig3ChannelCrossover asserts the selective-signaling effect and the
// receive-copy degradation: the channel beats plain Send/Recv below 16 KB
// and loses to it for large payloads (paper Section V).
func TestFig3ChannelCrossover(t *testing.T) {
	small := 2 << 10
	chS := runStack(t, echoChannel, small)
	srS := runStack(t, echoSendRecv, small)
	if chS.MeanRT >= srS.MeanRT {
		t.Errorf("2KB: channel (%v) should beat Send/Recv (%v) via selective signaling", chS.MeanRT, srS.MeanRT)
	}
	large := 100 << 10
	chL := runStack(t, echoChannel, large)
	srL := runStack(t, echoSendRecv, large)
	if chL.MeanRT <= srL.MeanRT {
		t.Errorf("100KB: channel (%v) should trail Send/Recv (%v) due to the receive copy", chL.MeanRT, srL.MeanRT)
	}
}

// TestFig3ChannelVsTCPBand asserts the paper's 33–43%% improvement band
// (we accept 25–60%% across the sweep; the exact band is reported in
// EXPERIMENTS.md).
func TestFig3ChannelVsTCPBand(t *testing.T) {
	for _, kb := range []int{1, 4, 16, 64, 100} {
		payload := kb << 10
		tcp := runStack(t, echoTCP, payload)
		ch := runStack(t, echoChannel, payload)
		gain := 1 - float64(ch.MeanRT)/float64(tcp.MeanRT)
		if gain < 0.20 || gain > 0.60 {
			t.Errorf("%dKB: channel gain over TCP = %.0f%%, want 20-60%%", kb, gain*100)
		}
	}
}

// TestFig3ReadWriteVsSendRecvFactor asserts the ~46%% advantage of
// one-sided operations over Send/Recv.
func TestFig3ReadWriteVsSendRecvFactor(t *testing.T) {
	for _, kb := range []int{1, 16} {
		payload := kb << 10
		sr := runStack(t, echoSendRecv, payload)
		rw := runStack(t, echoOneSided, payload)
		ratio := float64(rw.MeanRT) / float64(sr.MeanRT)
		if ratio < 0.30 || ratio > 0.70 {
			t.Errorf("%dKB: RW/SR latency ratio = %.2f, want ~0.54 (0.30-0.70)", kb, ratio)
		}
	}
	// At 100 KB both are DMA/wire-bound; one-sided must still not lose.
	sr := runStack(t, echoSendRecv, 100<<10)
	rw := runStack(t, echoOneSided, 100<<10)
	if rw.MeanRT > sr.MeanRT {
		t.Errorf("100KB: RW (%v) should not trail SR (%v)", rw.MeanRT, sr.MeanRT)
	}
}

// TestFig3ThroughputMirrorsLatency asserts Figure 3b's ordering.
func TestFig3ThroughputMirrorsLatency(t *testing.T) {
	for _, kb := range []int{1, 16, 100} {
		payload := kb << 10
		tcp := runStack(t, echoTCP, payload)
		sr := runStack(t, echoSendRecv, payload)
		rw := runStack(t, echoOneSided, payload)
		ch := runStack(t, echoChannel, payload)
		if rw.Throughput <= sr.Throughput {
			t.Errorf("%dKB: RW throughput should exceed SR", kb)
		}
		if ch.Throughput <= tcp.Throughput {
			t.Errorf("%dKB: channel throughput (%.0f) should exceed TCP (%.0f)", kb, ch.Throughput, tcp.Throughput)
		}
	}
}

func quickFig4(payload int) EchoConfig {
	return EchoConfig{Payload: payload, Messages: 300, Warmup: 50, Window: 30, Batch: 10, Seed: 1}
}

// TestFig4Shape asserts Figure 4: RUBIN's throughput beats the NIO stack
// at every payload, and its latency wins at the sweep's ends (1 KB and
// 100 KB per the paper).
func TestFig4Shape(t *testing.T) {
	for _, kb := range []int{1, 20, 100} {
		payload := kb << 10
		rubinRes, err := RunFig4(transport.KindRDMA, quickFig4(payload), model.Default())
		if err != nil {
			t.Fatalf("fig4 rdma %dKB: %v", kb, err)
		}
		tcpRes, err := RunFig4(transport.KindTCP, quickFig4(payload), model.Default())
		if err != nil {
			t.Fatalf("fig4 tcp %dKB: %v", kb, err)
		}
		if rubinRes.Throughput <= tcpRes.Throughput {
			t.Errorf("%dKB: RUBIN throughput (%.0f) should exceed TCP (%.0f)",
				kb, rubinRes.Throughput, tcpRes.Throughput)
		}
		if kb == 1 || kb == 100 {
			if rubinRes.MeanRT >= tcpRes.MeanRT {
				t.Errorf("%dKB: RUBIN latency (%v) should beat TCP (%v)", kb, rubinRes.MeanRT, tcpRes.MeanRT)
			}
		}
	}
}

// TestBFTAgreementFasterOverRUBIN asserts the end goal (experiment E5):
// the replicated system commits faster over RUBIN than over the NIO stack.
func TestBFTAgreementFasterOverRUBIN(t *testing.T) {
	specR := quickSpec(transport.KindRDMA, 4)
	specR.conns = 1
	specT := specR
	specT.kind = transport.KindTCP
	r := quickLoop(t, specR, 0, 16, 120, 20)
	tc := quickLoop(t, specT, 0, 16, 120, 20)
	if r.Mean >= tc.Mean {
		t.Errorf("BFT latency over RUBIN (%v) should beat NIO (%v)", r.Mean, tc.Mean)
	}
	if r.Goodput <= tc.Goodput {
		t.Errorf("BFT throughput over RUBIN (%.0f) should beat NIO (%.0f)", r.Goodput, tc.Goodput)
	}
}

// TestAblationTable asserts the E6 table is complete and sane: every
// variant produces positive latencies, the projected zero-copy receive
// never loses to the copying path, and disabling doorbell batching never
// helps. (Per-mechanism effects — completion counts under selective
// signaling, doorbell cost under batching — are asserted directly in the
// rubin package tests where the counters are visible; end-to-end latency
// deltas can hide in idle thread gaps depending on load alignment.)
func TestAblationTable(t *testing.T) {
	rc := DefaultRunContext()
	rc.Knobs = map[string]string{"payloads_kb": "2,32,100"}
	res, err := Run("E6", rc)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != len(Ablations()) {
		t.Fatalf("table has %d series, want %d", len(res.Series), len(Ablations()))
	}
	full := res.GetSeries("full (all optimizations)", metrics.MetricLatencyMean)
	if full == nil {
		t.Fatal("missing full series")
	}
	for _, s := range res.Series {
		for _, kb := range []float64{2, 32, 100} {
			v := s.At(kb)
			if !(v > 0) {
				t.Errorf("series %q at %vKB: non-positive latency %v", s.Name, kb, v)
			}
		}
	}
	zc := res.GetSeries("zero-copy receive (projected)", metrics.MetricLatencyMean)
	for _, kb := range []float64{2, 32, 100} {
		if zc.At(kb) > full.At(kb)*1.001 {
			t.Errorf("zero-copy receive slower than copying at %vKB: %.2f vs %.2f", kb, zc.At(kb), full.At(kb))
		}
	}
	nb := res.GetSeries("no doorbell batching", metrics.MetricLatencyMean)
	if nb.At(2) < full.At(2)*0.95 {
		t.Errorf("disabling batching improved 2KB latency: %.2f vs %.2f", nb.At(2), full.At(2))
	}
}

// TestEchoWedgeFails pins that an echo which stops part-way is an error,
// not a mean over whatever finished: the reply direction stalls after
// eight of twelve round trips.
func TestEchoWedgeFails(t *testing.T) {
	loop := sim.NewLoop(1)
	d := newEchoDriver(loop, EchoConfig{Messages: 10, Warmup: 2, Window: 3})
	sends := 0
	loop.Post(func() {
		d.start(func() {
			if sends++; sends <= 8 {
				loop.After(sim.Microsecond, d.completed)
			}
		})
	})
	loop.Run()
	if res, err := d.result(); err == nil {
		t.Fatalf("wedged echo (%d of %d round trips) reported a result: %+v", d.done, d.total(), res)
	}
}
