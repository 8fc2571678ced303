// Service benchmarks: sustained placement throughput through the
// concurrent placement front-end of internal/service at increasing client
// concurrency. Each client iteration is one place + one release round
// trip, so the plant stays at a small steady-state load and the figure
// isolates the serving pipeline (intake → single-writer apply → reply)
// rather than queueing behaviour. BenchmarkService feeds
// BENCH_service.json (make bench-service).
package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/service"
	"affinitycluster/internal/topology"
)

// BenchmarkService measures end-to-end placements per second at 1, 8, and
// 64 concurrent clients against a 200-node plant. Every request fits the
// idle plant with room for all clients at once, so no placement ever
// waits in the queue and the figure is pure serving throughput.
func BenchmarkService(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			topo, err := topology.Uniform(4, 5, 10, topology.DefaultDistances())
			if err != nil {
				b.Fatal(err)
			}
			const types = 2
			caps := make([][]int, topo.Nodes())
			for i := range caps {
				caps[i] = []int{4, 4}
			}
			inv, err := inventory.NewFromMatrix(caps)
			if err != nil {
				b.Fatal(err)
			}
			svc, err := service.New(service.Config{
				Topology:  topo,
				Inventory: inv,
				BatchSize: 32,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			for w := 0; w < clients; w++ {
				iters := b.N / clients
				if w < b.N%clients {
					iters++
				}
				wg.Add(1)
				go func(w, iters int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + w)))
					for i := 0; i < iters; i++ {
						r := model.Request{2 + rng.Intn(5), 2 + rng.Intn(5)}
						p, err := svc.Place(r)
						if err != nil {
							b.Error(err)
							return
						}
						if err := svc.Release(p.Entries); err != nil {
							b.Error(err)
							return
						}
					}
				}(w, iters)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "places/s")
			if err := svc.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}
