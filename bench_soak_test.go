// Soak benchmarks: streaming trace replay throughput and peak live heap
// at soak scale. Unlike the other benchmarks, each op is itself a long
// averaged run (open-loop requests through the full cloudsim plant with
// faults on), so the intended invocation is -benchtime=1x: the
// interesting figures are the custom req/s and peak-heap-bytes metrics,
// not ns/op. BenchmarkSoak feeds BENCH_soak.json (make bench-soak). It
// has two axes: trace length on the default 256-node plant (100k and 1M
// requests) and plant size (2k and 16k nodes, 200k requests each, the
// arrival rate scaled with the node count so every plant runs at the
// default ~70% utilization). The 1M-request and 16k-node arms are
// skipped under -short.
package bench

import (
	"testing"

	"affinitycluster/internal/experiments"
)

func BenchmarkSoak(b *testing.B) {
	arms := []struct {
		name                string
		racks, nodesPerRack int // two clouds each
		requests            int
		long                bool
	}{
		{"100k", 8, 16, 100_000, false},
		{"1M", 8, 16, 1_000_000, true},
		{"2k-nodes", 16, 64, 200_000, false},
		{"16k-nodes", 64, 128, 200_000, true},
	}
	for _, arm := range arms {
		b.Run(arm.name, func(b *testing.B) {
			if arm.long && testing.Short() {
				b.Skip("long soak arm skipped in -short")
			}
			cfg := experiments.DefaultSoakConfig()
			cfg.Requests = arm.requests
			cfg.Racks, cfg.NodesPerRack = arm.racks, arm.nodesPerRack
			cfg.Workload.BaseRate *= float64(cfg.Clouds*arm.racks*arm.nodesPerRack) / 256
			var peak uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := experiments.Soak(2012, cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Cloud.Served == 0 {
					b.Fatal("soak served nothing")
				}
				if res.PeakHeapBytes > peak {
					peak = res.PeakHeapBytes
				}
			}
			b.StopTimer()
			total := float64(arm.requests) * float64(b.N)
			b.ReportMetric(total/b.Elapsed().Seconds(), "req/s")
			b.ReportMetric(float64(peak), "peak-heap-bytes")
			b.Logf("%d requests on %d nodes: peak live heap %.2f MiB", arm.requests,
				cfg.Clouds*arm.racks*arm.nodesPerRack, float64(peak)/(1<<20))
		})
	}
}
