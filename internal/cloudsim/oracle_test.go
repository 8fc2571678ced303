package cloudsim

import (
	"fmt"
	"slices"
	"testing"

	"affinitycluster/internal/faults"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

// checkRunning is the bookkeeping oracle of the sparse running set. The
// inventory's allocation matrix C is the sum of every running cluster's
// cells, so per (node, type) the cells plus the remaining capacity must
// equal the live capacity (zero on failed nodes); each cluster's cells
// must be canonical — row-major, no duplicate, no zero or negative cell —
// with their sum cached in vms; and usedSlots must count them all.
func checkRunning(s *Simulator) error {
	caps := s.inv.CapacityMatrix()
	held := make([][]int, len(caps))
	for i := range held {
		held[i] = make([]int, len(caps[i]))
	}
	ids := make([]int, 0, len(s.running))
	for id := range s.running {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	total := 0
	for _, id := range ids {
		c := s.running[id]
		sum := 0
		for k, e := range c.cells {
			if e.Count <= 0 {
				return fmt.Errorf("cluster %d: cell %+v is not positive", id, e)
			}
			if k > 0 {
				p := c.cells[k-1]
				if p.Node > e.Node || (p.Node == e.Node && p.Type >= e.Type) {
					return fmt.Errorf("cluster %d: cells %+v, %+v out of row-major order or repeated", id, p, e)
				}
			}
			held[e.Node][e.Type] += e.Count
			sum += e.Count
		}
		if sum != c.vms {
			return fmt.Errorf("cluster %d: cached %d VMs, cells hold %d", id, c.vms, sum)
		}
		total += sum
	}
	if total != s.usedSlots {
		return fmt.Errorf("usedSlots %d, running clusters hold %d VMs", s.usedSlots, total)
	}
	rem := s.inv.RemainingView()
	for i := range caps {
		for j := range caps[i] {
			if held[i][j]+rem[i][j] != caps[i][j] {
				return fmt.Errorf("node %d type %d: running cells %d + remaining %d != capacity %d",
					i, j, held[i][j], rem[i][j], caps[i][j])
			}
		}
	}
	return nil
}

// runChecked is Run with the oracle asserted after every engine step.
func runChecked(t *testing.T, s *Simulator, reqs []model.TimedRequest) *Metrics {
	t.Helper()
	for _, r := range reqs {
		r := r
		if _, err := s.engine.At(r.Arrival, func(now float64) { s.arrive(r, now) }); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.scheduleFaults(); err != nil {
		t.Fatal(err)
	}
	for step := 1; s.failed == nil && s.engine.Step(); step++ {
		if err := checkRunning(s); err != nil {
			t.Fatalf("after step %d (t=%v): %v", step, s.engine.Now(), err)
		}
	}
	m, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	conserve(t, m, len(reqs))
	if err := s.inv.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestElasticFaultBookkeepingOracle drives the two scenarios that edit
// running clusters in place — elastic grow/shrink under fault
// degradation, evacuation and teardown, and batch placement with
// migration moves under faults — with the oracle checked after every
// event.
func TestElasticFaultBookkeepingOracle(t *testing.T) {
	t.Run("elastic+faults", func(t *testing.T) {
		tp, inv := plant(t)
		sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{
			Elastic:   elasticCfg(),
			Faults:    faults.Config{MTBF: 300, MTTR: 60, Horizon: 2000},
			FaultSeed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := runChecked(t, sim, elasticWorkload(t, 31, 40))
		if m.Grows == 0 || m.Shrinks == 0 || m.Evacuations == 0 || m.Requeued == 0 {
			t.Errorf("scenario missed a path: grows %d, shrinks %d, evacuations %d, teardowns %d",
				m.Grows, m.Shrinks, m.Evacuations, m.Requeued)
		}
	})
	t.Run("batch+migrate", func(t *testing.T) {
		tp := topology.PaperSimPlant()
		caps, err := workload.RandomCapacities(11, tp.Nodes(), 3, workload.InventoryConfig{MaxPerType: 2})
		if err != nil {
			t.Fatal(err)
		}
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			t.Fatal(err)
		}
		reqs, err := workload.RandomRequests(12, 30, 3, workload.Normal, workload.DefaultRequestConfig())
		if err != nil {
			t.Fatal(err)
		}
		arr := workload.DefaultArrivalConfig()
		arr.MeanInterarrival = 5
		timedReqs, err := workload.TimedRequests(13, reqs, arr)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := New(tp, inv, &placement.OnlineHeuristic{}, Config{
			Policy:    queue.FIFO,
			Batch:     true,
			Migrate:   true,
			Faults:    faults.Config{MTBF: 40, MTTR: 60, Horizon: 250, RackEvery: 2},
			FaultSeed: 14,
		})
		if err != nil {
			t.Fatal(err)
		}
		m := runChecked(t, sim, timedReqs)
		if m.Migrations == 0 || m.Evacuations == 0 || m.Requeued == 0 {
			t.Errorf("scenario missed a path: migrations %d, evacuations %d, teardowns %d",
				m.Migrations, m.Evacuations, m.Requeued)
		}
	})
}
