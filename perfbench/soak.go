package main

import (
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"affinitycluster/internal/cloudsim"
	"affinitycluster/internal/experiments"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

// soakSize picks the plant and request count of a soak workload. The
// arrival rate scales with the plant, so both plants run at the default
// scenario's ~70% long-run utilisation.
type soakSize struct {
	clouds, racks, nodesPerRack int
	requests                    int
}

func (z soakSize) config() experiments.SoakConfig {
	cfg := experiments.DefaultSoakConfig()
	cfg.Clouds, cfg.Racks, cfg.NodesPerRack = z.clouds, z.racks, z.nodesPerRack
	cfg.Requests = z.requests
	cfg.Workload.BaseRate *= float64(z.clouds*z.racks*z.nodesPerRack) / 256
	// Same derivation as experiments.Soak: the fault schedule covers the
	// expected run span.
	cfg.Faults.Horizon = float64(cfg.Requests) / cfg.Workload.BaseRate
	return cfg
}

// The 256-node pass replays 40k requests (about one simulated day). The
// 2048-node pass replays 20k requests: at 4 req/s that is ~5000 simulated
// seconds, eight mean holds, well past the occupancy ramp.
var (
	soak256Size = soakSize{2, 8, 16, 40_000}
	soak2kSize  = soakSize{2, 16, 64, 20_000}
	smokeSoak   = soakSize{2, 4, 16, 300}
)

func pickSoak(z soakSize, smoke bool) soakSize {
	if smoke {
		return smokeSoak
	}
	return z
}

func soak256(seed int64, smoke bool) (*pending, error) {
	return prepareSoak(pickSoak(soak256Size, smoke), seed)
}

func soak2k(seed int64, smoke bool) (*pending, error) {
	return prepareSoak(pickSoak(soak2kSize, smoke), seed)
}

func soak256Replay(seed int64, smoke bool) (*replay, error) {
	return soakReplay(pickSoak(soak256Size, smoke), seed)
}

func soak2kReplay(seed int64, smoke bool) (*replay, error) {
	return soakReplay(pickSoak(soak2kSize, smoke), seed)
}

// soakPlant builds the topology and the inventory of a soak.
func soakPlant(cfg experiments.SoakConfig) (*topology.Topology, *inventory.Inventory, error) {
	tp, err := topology.Uniform(cfg.Clouds, cfg.Racks, cfg.NodesPerRack, topology.DefaultDistances())
	if err != nil {
		return nil, nil, err
	}
	caps, err := workload.RandomCapacities(plantSeed, tp.Nodes(), cfg.Workload.Types, workload.InventoryConfig{MaxPerType: 2})
	if err != nil {
		return nil, nil, err
	}
	inv, err := inventory.NewFromMatrix(caps)
	return tp, inv, err
}

// prepareSoak sets up one streaming replay through cloudsim.RunStream,
// built the way experiments.Soak builds it (workload seed seed+1, fault
// seed seed+2, but a fixed plant), with the obs trace streamed to a
// digesting sink.
func prepareSoak(z soakSize, seed int64) (*pending, error) {
	cfg := z.config()
	tp, inv, err := soakPlant(cfg)
	if err != nil {
		return nil, err
	}
	sink := &traceSink{}
	reg := obs.NewStreamingRegistry(sink)
	cs, err := cloudsim.New(tp, inv, &placement.OnlineHeuristic{Obs: reg}, cloudsim.Config{
		Policy:    queue.FIFO,
		Faults:    cfg.Faults,
		FaultSeed: seed + 2,
		Recovery:  cfg.Recovery,
		Sketch:    cfg.Sketch,
		Obs:       reg,
	})
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewOpenLoop(seed+1, cfg.Requests, cfg.Workload)
	if err != nil {
		return nil, err
	}
	return &pending{drop: func() {}, run: func(tr *tracer) (*pass, error) {
		sink.tr = tr
		mem := newMemSampler(memStride)
		clock := newArrivalClock(mem)
		t1, c1 := time.Now(), cpuTime()
		root := tr.begin("cloudsim.run")
		m, err := cs.RunStream(&tracedSource{src: gen, tr: tr, clock: clock})
		tr.end(root)
		wall, cpu := time.Since(t1), cpuTime()-c1
		peak, allocBytes, allocObjects := mem.finish()
		if err != nil {
			return nil, err
		}
		p := &pass{
			wall: wall, cpu: cpu, ops: cfg.Requests, failed: m.Rejected + m.Unplaced,
			lat: clock.perRequest(), dcSum: m.DistanceSketch.Sum(), dcN: int(m.DistanceSketch.Count()),
			peakLive: peak, allocBytes: allocBytes, allocObjects: allocObjects, tr: tr,
		}
		if err := checkReplay(m, cfg.Requests, inv, reg); err != nil {
			return p, err
		}
		p.digest = simDigest(m, reg, sink)
		p.counts = simCounts(m, reg, sink, cfg.Requests)
		return p, nil
	}}, nil
}

// memStride is the number of arrivals between heap samples.
const memStride = 256

// checkReplay is the replay half of the correctness gate: request and
// resize conservation, the fault ledger, the registry agreeing with the
// metrics, and the inventory's own invariants.
func checkReplay(m *cloudsim.Metrics, requests int, inv *inventory.Inventory, reg *obs.Registry) error {
	var errs []error
	if got := m.Served + m.Rejected + m.Unplaced; got != requests {
		errs = append(errs, fmt.Errorf("served %d + rejected %d + unplaced %d = %d, want %d requests",
			m.Served, m.Rejected, m.Unplaced, got, requests))
	}
	if m.Grows+m.GrowRejected+m.Deferred != m.GrowRequests {
		errs = append(errs, fmt.Errorf("resize ledger: %d grown + %d rejected + %d deferred != %d requested",
			m.Grows, m.GrowRejected, m.Deferred, m.GrowRequests))
	}
	if m.Replacements > m.Requeued || m.RetriesExhausted > m.Requeued {
		errs = append(errs, fmt.Errorf("fault ledger: %d replaced and %d exhausted of %d requeued",
			m.Replacements, m.RetriesExhausted, m.Requeued))
	}
	snap := reg.Snapshot()
	if snap.Counters["cloudsim.rejected"] != int64(m.Rejected) {
		errs = append(errs, fmt.Errorf("registry counts %d rejections, metrics %d", snap.Counters["cloudsim.rejected"], m.Rejected))
	}
	if err := reg.SinkErr(); err != nil {
		errs = append(errs, fmt.Errorf("trace sink: %w", err))
	}
	if err := inv.CheckInvariants(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

// simDigest hashes everything the simulation decides: the metrics (with
// their sketches), the registry snapshot, and the streamed trace.
func simDigest(m *cloudsim.Metrics, reg *obs.Registry, sink *traceSink) string {
	h := sha256.New()
	plain := *m
	plain.DistanceSketch, plain.WaitSketch = nil, nil
	fmt.Fprintf(h, "%+v\n", plain)
	for _, q := range []float64{50, 90, 99} {
		fmt.Fprintf(h, "%v %v\n", m.DistanceSketch.Value(q), m.WaitSketch.Value(q))
	}
	fmt.Fprintf(h, "%v %v %v %v\n", m.DistanceSketch.Count(), m.DistanceSketch.Sum(), m.WaitSketch.Count(), m.WaitSketch.Sum())
	snap, err := json.Marshal(reg.Snapshot())
	if err != nil {
		snap = []byte(err.Error())
	}
	h.Write(snap)
	fmt.Fprintf(h, "\n%s\n", sink.digest())
	return fmt.Sprintf("%x", h.Sum(nil))
}

// simCounts are the deterministic counts a traced replay run reports.
func simCounts(m *cloudsim.Metrics, reg *obs.Registry, sink *traceSink, requests int) map[string]float64 {
	out := map[string]float64{
		"cloudsim.served":      float64(m.Served),
		"cloudsim.rejected":    float64(m.Rejected),
		"cloudsim.unplaced":    float64(m.Unplaced),
		"cloudsim.requeued":    float64(m.Requeued),
		"cloudsim.evacuations": float64(m.Evacuations),
		"cloudsim.failures":    float64(m.Failures),
		"cloudsim.wait_p99_s":  m.WaitSketch.Value(99),
		"migration.moves":      float64(m.Migrations),
		"obs.events_per_req":   float64(sink.events) / float64(requests),
	}
	if sink.events > 0 {
		out["obs.bytes_per_event"] = float64(sink.bytes) / float64(sink.events)
	}
	return out
}

// soakReplay is the layer replay of a soak: the same plant and the same
// open-loop requests, served by layerSim without faults.
//
//lint:owner singlewriter
func soakReplay(z soakSize, seed int64) (*replay, error) {
	cfg := z.config()
	tp, inv, err := soakPlant(cfg)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewOpenLoop(seed+1, cfg.Requests, cfg.Workload)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	s, err := newLayerSim(tr, tp, inv, cfg.Sketch.WaitMax)
	if err != nil {
		return nil, err
	}
	root := tr.begin("replay")
	s.stream(gen)
	err = s.runEngine()
	tr.end(root)
	if err != nil {
		return nil, fmt.Errorf("layer replay: %w", err)
	}
	return &replay{tr: tr, ops: cfg.Requests, counts: s.counts()}, nil
}
