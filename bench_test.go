// Package rubin_test hosts the top-level benchmark harness: one testing.B
// benchmark per figure/table of the paper's evaluation (plus the E5/E6
// extensions). Each iteration runs a full deterministic simulation; the
// reported custom metrics are *virtual* time and rate — the simulated
// cluster's numbers, which the paper's figures correspond to — while ns/op
// measures the simulator's real cost.
//
// Regenerate the figures directly with:
//
//	go test -bench=Fig3 -benchtime=1x
//	go run ./cmd/benchsuite -experiments E1,E2   (full sweep, pretty tables)
package rubin_test

import (
	"fmt"
	"testing"

	"rubin/internal/bench"
	"rubin/internal/kvstore"
	"rubin/internal/model"
	"rubin/internal/pbft"
	"rubin/internal/reptor"
	"rubin/internal/transport"
)

// benchPayloadsKB are the representative points of the 1–100 KB sweep.
var benchPayloadsKB = []int{1, 16, 100}

func echoCfg(kb int) bench.EchoConfig {
	cfg := bench.DefaultEchoConfig(kb << 10)
	cfg.Messages = 200
	cfg.Warmup = 20
	return cfg
}

// BenchmarkFig3Latency regenerates Figure 3a (echo latency per stack).
func BenchmarkFig3Latency(b *testing.B) {
	for _, stack := range bench.Fig3Stacks() {
		for _, kb := range benchPayloadsKB {
			stack, kb := stack, kb
			b.Run(fmt.Sprintf("%s/%dKB", stack, kb), func(b *testing.B) {
				var last bench.EchoResult
				for i := 0; i < b.N; i++ {
					res, err := bench.RunFig3(stack, echoCfg(kb), model.Default())
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.MeanRT.Micros(), "vus/op")
				b.ReportMetric(last.P99RT.Micros(), "vus/p99")
			})
		}
	}
}

// BenchmarkFig3Throughput regenerates Figure 3b (echo throughput).
func BenchmarkFig3Throughput(b *testing.B) {
	for _, stack := range bench.Fig3Stacks() {
		for _, kb := range benchPayloadsKB {
			stack, kb := stack, kb
			b.Run(fmt.Sprintf("%s/%dKB", stack, kb), func(b *testing.B) {
				var last bench.EchoResult
				for i := 0; i < b.N; i++ {
					res, err := bench.RunFig3(stack, echoCfg(kb), model.Default())
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.Throughput/1000, "vkrps")
			})
		}
	}
}

// BenchmarkFig4 regenerates Figure 4 (RUBIN vs Java-NIO selector over the
// Reptor communication stack; latency and throughput in one run).
func BenchmarkFig4(b *testing.B) {
	names := map[transport.Kind]string{transport.KindRDMA: "Rubin", transport.KindTCP: "TCP"}
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		for _, kb := range benchPayloadsKB {
			kind, kb := kind, kb
			b.Run(fmt.Sprintf("%s/%dKB", names[kind], kb), func(b *testing.B) {
				cfg := bench.DefaultFig4Config(kb << 10)
				cfg.Messages = 300
				cfg.Warmup = 50
				var last bench.EchoResult
				for i := 0; i < b.N; i++ {
					res, err := bench.RunFig4(kind, cfg, model.Default())
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.MeanRT.Micros(), "vus/op")
				b.ReportMetric(last.Throughput, "vrps")
			})
		}
	}
}

// BenchmarkBFTAgreement regenerates experiment E5: the fully replicated
// system (4-replica PBFT) over both transport stacks.
func BenchmarkBFTAgreement(b *testing.B) {
	names := map[transport.Kind]string{transport.KindRDMA: "Reptor+RUBIN", transport.KindTCP: "Reptor+NIO"}
	for _, kind := range []transport.Kind{transport.KindRDMA, transport.KindTCP} {
		for _, kb := range []int{1, 16} {
			kind, kb := kind, kb
			b.Run(fmt.Sprintf("%s/%dKB", names[kind], kb), func(b *testing.B) {
				cfg := bench.DefaultBFTConfig(kind, kb<<10)
				cfg.Requests = 150
				cfg.Warmup = 20
				var last bench.BFTResult
				for i := 0; i < b.N; i++ {
					res, err := bench.RunBFT(cfg, model.Default())
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.MeanLat.Micros(), "vus/op")
				b.ReportMetric(last.Throughput, "vrps")
			})
		}
	}
}

// BenchmarkAblation regenerates experiment E6: each Section IV
// optimization disabled in isolation, at a small and a large payload.
func BenchmarkAblation(b *testing.B) {
	for _, ab := range bench.Ablations() {
		for _, kb := range []int{2, 100} {
			ab, kb := ab, kb
			b.Run(fmt.Sprintf("%s/%dKB", ab.Name, kb), func(b *testing.B) {
				tab, err := bench.AblationTable([]int{kb}, model.Default())
				if err != nil {
					b.Fatal(err)
				}
				series := tab.Get(ab.Name)
				if series == nil {
					b.Fatalf("missing series %q", ab.Name)
				}
				for i := 1; i < b.N; i++ {
					if _, err := bench.AblationTable([]int{kb}, model.Default()); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(series.At(float64(kb)), "vus/op")
			})
		}
	}
}

// BenchmarkCOPScaling measures Reptor's consensus-oriented parallelization:
// ordering throughput with K parallel instances.
func BenchmarkCOPScaling(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		k := k
		b.Run(fmt.Sprintf("instances-%d", k), func(b *testing.B) {
			var rate float64
			for i := 0; i < b.N; i++ {
				cfg := reptor.DefaultConfig()
				cfg.Instances = k
				g, err := reptor.NewGroup(transport.KindRDMA, cfg, model.Default(), 1,
					func(int) pbft.Application { return kvstore.New() })
				if err != nil {
					b.Fatal(err)
				}
				if err := g.Start(); err != nil {
					b.Fatal(err)
				}
				cl, err := g.AddClient()
				if err != nil {
					b.Fatal(err)
				}
				const requests = 100
				done := 0
				start := g.Loop.Now()
				finish := start
				g.Loop.Post(func() {
					for r := 0; r < requests; r++ {
						cl.Invoke(kvstore.EncodeOp(kvstore.OpPut, fmt.Sprintf("w%04d", r), "v"), func([]byte) {
							done++
							finish = g.Loop.Now()
						})
					}
				})
				g.Loop.Run()
				if done != requests {
					b.Fatalf("completed %d of %d", done, requests)
				}
				rate = float64(requests) / (finish - start).Seconds()
			}
			b.ReportMetric(rate, "vrps")
		})
	}
}
