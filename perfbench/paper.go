package main

import (
	"fmt"
	"time"

	"affinitycluster/internal/cloudsim"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

// paperRequests is the trace length of one paper-migrate pass, and
// paperWindow its batch window in simulated seconds. Arrivals come every
// 20 s on average against 300 s holds: about 15 clusters of ~6 VMs live
// on the 3×10 plant, ~55% of its scarcest VM type, so window drains hand
// Algorithm 2 batches of a few requests, every departure leaves holes for
// the migration planner, and the queue stays short. (On a saturated plant
// the queue grows all run and the per-request cost follows the trace's
// luck: one 500-request draw then moved throughput by ±15%.)
const (
	paperRequests      = 250
	smokePaperRequests = 40
	paperInterarrival  = 20
	paperWindow        = 60
	paperTypes         = 3
	// defaultWaitMax is cloudsim's default wait-sketch bound, seconds.
	defaultWaitMax = 3600
)

// paperTrace materialises the seeded trace on the fixed plant: request
// vectors from seed+1 and arrival times from seed+2, as the paper
// scenarios derive them.
func paperTrace(seed int64, n int) (*topology.Topology, *inventory.Inventory, []model.TimedRequest, error) {
	tp := topology.PaperSimPlant()
	caps, err := workload.RandomCapacities(plantSeed, tp.Nodes(), paperTypes, workload.DefaultInventoryConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	reqs, err := workload.RandomRequests(seed+1, n, paperTypes, workload.Normal, workload.DefaultRequestConfig())
	if err != nil {
		return nil, nil, nil, err
	}
	arr := workload.DefaultArrivalConfig()
	arr.MeanInterarrival = paperInterarrival
	timed, err := workload.TimedRequests(seed+2, reqs, arr)
	if err != nil {
		return nil, nil, nil, err
	}
	inv, err := inventory.NewFromMatrix(caps)
	return tp, inv, timed, err
}

func paperSize(smoke bool) int {
	if smoke {
		return smokePaperRequests
	}
	return paperRequests
}

// paperPass sets up the materialised trace for cloudsim.Run with batch
// placement (Algorithm 2), a batch window, and migration planning after
// every departure.
func paperPass(seed int64, smoke bool) (*pending, error) {
	n := paperSize(smoke)
	tp, inv, timed, err := paperTrace(seed, n)
	if err != nil {
		return nil, err
	}
	sink := &traceSink{}
	reg := obs.NewStreamingRegistry(sink)
	cs, err := cloudsim.New(tp, inv, &placement.OnlineHeuristic{Obs: reg}, cloudsim.Config{
		Policy:      queue.FIFO,
		Batch:       true,
		Migrate:     true,
		BatchWindow: paperWindow,
		Obs:         reg,
	})
	if err != nil {
		return nil, err
	}
	return &pending{drop: func() {}, run: func(tr *tracer) (*pass, error) {
		sink.tr = tr
		mem := newMemSampler(memStride / 16)
		// Under the batch window every arrival is admitted to the queue
		// first, so queue_admit events mark the arrivals.
		sink.arrivals, sink.clock = []byte(`"kind":"queue_admit"`), newArrivalClock(mem)
		t1, c1 := time.Now(), cpuTime()
		root := tr.begin("cloudsim.run")
		m, err := cs.Run(timed)
		tr.end(root)
		wall, cpu := time.Since(t1), cpuTime()-c1
		peak, allocBytes, allocObjects := mem.finish()
		if err != nil {
			return nil, err
		}
		p := &pass{
			wall: wall, cpu: cpu, ops: n, failed: m.Rejected + m.Unplaced,
			lat: sink.clock.perRequest(), dcSum: m.DistanceSketch.Sum(), dcN: int(m.DistanceSketch.Count()),
			peakLive: peak, allocBytes: allocBytes, allocObjects: allocObjects, tr: tr,
		}
		if err := checkReplay(m, n, inv, reg); err != nil {
			return p, err
		}
		p.digest = simDigest(m, reg, sink)
		p.counts = simCounts(m, reg, sink, n)
		return p, nil
	}}, nil
}

// paperReplay is the layer replay of paper-migrate: the same trace,
// scheduled up front as Run schedules it, served by layerSim in batch and
// migration mode.
//
//lint:owner singlewriter
func paperReplay(seed int64, smoke bool) (*replay, error) {
	n := paperSize(smoke)
	tp, inv, timed, err := paperTrace(seed, n)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	s, err := newLayerSim(tr, tp, inv, defaultWaitMax)
	if err != nil {
		return nil, err
	}
	s.batch, s.migrate, s.window = true, true, paperWindow
	root := tr.begin("replay")
	for _, r := range timed {
		s.schedule(r, nil)
	}
	err = s.runEngine()
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	return &replay{tr: tr, ops: n, counts: s.counts()}, nil
}
