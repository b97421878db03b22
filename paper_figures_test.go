package rubin_test

import (
	"math"
	"testing"

	"rubin/internal/metrics"
)

// checkedIn reads one checked-in result file and returns a lookup of the
// point (series, x) of one metric that fails the test when the file has no
// such point.
func checkedIn(t *testing.T, name, metric string) func(series string, x float64) float64 {
	t.Helper()
	res, err := metrics.ReadResultFile(metrics.ResultFilename(name))
	if err != nil {
		t.Fatal(err)
	}
	return func(series string, x float64) float64 {
		t.Helper()
		s := res.GetSeries(series, metric)
		if s == nil {
			t.Fatalf("%s: missing series (%s, %s)", name, series, metric)
		}
		y := s.At(x)
		if math.IsNaN(y) || y <= 0 {
			t.Fatalf("%s: series (%s, %s) has no positive point at %v", name, series, metric, x)
		}
		return y
	}
}

// TestPaperFiguresCheckedIn pins the paper's qualitative claims against
// the checked-in BENCH_E1/E3/E5/E6/E8.json without running anything — on
// the full sweeps, what TestFig3LatencyOrdering, TestFig3ChannelVsTCPBand,
// TestFig4Shape, TestAblationTable and TestBFTAgreementFasterOverRUBIN
// assert on short runs. A change that moves a figure's shape fails here
// when the file is regenerated.
//
// E6 is pinned as the file reads, including two things that are open
// questions rather than claims (ROADMAP O19): the projected zero-copy
// receive is 3.5 µs *slower* than the copying channel at 4 KB, and at 64
// and 100 KB no ablation moves the mean at all.
func TestPaperFiguresCheckedIn(t *testing.T) {
	// Figure 3a: TCP is the slowest and one-sided Read/Write the fastest
	// series at every payload; the channel beats raw Send/Recv only at
	// 1–2 KB (selective signaling) and trails it from 4 KB on (the receive
	// copy).
	e1 := checkedIn(t, "E1", metrics.MetricLatencyMean)
	for _, kb := range []float64{1, 2, 4, 8, 16, 32, 64, 100} {
		tcp, sr, rw, ch := e1("TCP", kb), e1("RDMA Send/Recv", kb), e1("RDMA Read/Write", kb), e1("RDMA Channel", kb)
		if tcp <= sr || tcp <= ch {
			t.Errorf("E1 %vKB: TCP (%.1f) should be slowest (Send/Recv %.1f, Channel %.1f)", kb, tcp, sr, ch)
		}
		if rw >= sr || rw >= ch {
			t.Errorf("E1 %vKB: Read/Write (%.1f) should be fastest (Send/Recv %.1f, Channel %.1f)", kb, rw, sr, ch)
		}
		if channelWins := ch < sr; channelWins != (kb <= 2) {
			t.Errorf("E1 %vKB: Channel %.1f vs Send/Recv %.1f, want the channel ahead only at 1-2 KB", kb, ch, sr)
		}
	}
	if ch, sr := e1("RDMA Channel", 1), e1("RDMA Send/Recv", 1); math.Round(ch*10) != 472 || sr != 55 {
		t.Errorf("E1 1KB: Channel %.1f / Send/Recv %.1f, want 47.2 / 55.0", ch, sr)
	}
	if ch, sr := e1("RDMA Channel", 100), e1("RDMA Send/Recv", 100); math.Round(ch) != 364 || math.Round(sr) != 265 {
		t.Errorf("E1 100KB: Channel %.0f / Send/Recv %.0f, want 364 / 265", ch, sr)
	}

	// Figure 4a: the RUBIN selector is below the NIO selector everywhere.
	e3 := checkedIn(t, "E3", metrics.MetricLatencyMean)
	for _, kb := range []float64{1, 10, 20, 40, 60, 80, 100} {
		if r, n := e3("Rubin", kb), e3("TCP", kb); r >= n {
			t.Errorf("E3 %vKB: RUBIN (%.0f) should beat NIO (%.0f)", kb, r, n)
		}
	}
	if r, n := e3("Rubin", 1), e3("TCP", 1); math.Round(r) != 254 || math.Round(n) != 287 {
		t.Errorf("E3 1KB: RUBIN %.0f / NIO %.0f, want 254 / 287", r, n)
	}
	if r, n := e3("Rubin", 100), e3("TCP", 100); math.Round(r) != 2556 || math.Round(n) != 4890 {
		t.Errorf("E3 100KB: RUBIN %.0f / NIO %.0f, want 2556 / 4890", r, n)
	}

	// The paper's stated goal, BFT over RUBIN: the replicated system over
	// RUBIN out-commits the same protocol code over NIO, at a lower mean
	// latency, at every payload of E5.
	e5Mean, e5Rate := checkedIn(t, "E5", metrics.MetricLatencyMean), checkedIn(t, "E5", metrics.MetricThroughput)
	for _, kb := range []float64{1, 4, 16} {
		if r, n := e5Rate("Reptor+RUBIN", kb), e5Rate("Reptor+NIO", kb); r <= n {
			t.Errorf("E5 %vKB: Reptor+RUBIN commits %.0f req/s, Reptor+NIO %.0f; RUBIN should commit more", kb, r, n)
		}
		if r, n := e5Mean("Reptor+RUBIN", kb), e5Mean("Reptor+NIO", kb); r >= n {
			t.Errorf("E5 %vKB: Reptor+RUBIN mean %.1f us, Reptor+NIO %.1f us; RUBIN should be lower", kb, r, n)
		}
	}

	// COP (Behl et al.): at the largest payload the single leader's
	// ordering CPU binds, and four leaders out-commit one over RUBIN.
	e8Rate := checkedIn(t, "E8", metrics.MetricThroughput)
	if k4, k1 := e8Rate("COP RUBIN 64KB", 4), e8Rate("COP RUBIN 64KB", 1); k4 <= k1 {
		t.Errorf("E8 COP RUBIN 64KB: K=4 commits %.0f req/s, K=1 %.0f; K=4 should commit more", k4, k1)
	}

	// Section IV ablations: the sign of each, per payload.
	e6 := checkedIn(t, "E6", metrics.MetricLatencyMean)
	for _, kb := range []float64{1, 4, 16, 64, 100} {
		full := e6("full (all optimizations)", kb)
		for _, name := range []string{"no selective signaling", "no doorbell batching"} {
			switch got := e6(name, kb); {
			case kb <= 16 && got <= full:
				t.Errorf("E6 %vKB: %q (%.3f) should be slower than full (%.3f)", kb, name, got, full)
			case kb >= 64 && got != full:
				t.Errorf("E6 %vKB: %q (%.3f) moved off full (%.3f); the flat large-payload rows changed", kb, name, got, full)
			}
		}
		// Every swept payload is above the inline limit.
		if got := e6("no inline sends", kb); got != full {
			t.Errorf("E6 %vKB: no inline sends (%.3f) differs from full (%.3f)", kb, got, full)
		}
		switch zc := e6("zero-copy receive (projected)", kb); {
		case (kb == 1 || kb == 16) && zc >= full:
			t.Errorf("E6 %vKB: zero-copy receive (%.3f) should beat full (%.3f)", kb, zc, full)
		case kb == 4 && (zc <= full || math.Round((zc-full)*10) != 35):
			t.Errorf("E6 4KB: zero-copy receive %.3f vs full %.3f, the file had it 3.5 us slower", zc, full)
		case kb >= 64 && math.Abs(zc-full) > 0.01:
			t.Errorf("E6 %vKB: zero-copy receive (%.3f) moved off full (%.3f)", kb, zc, full)
		}
	}
}
