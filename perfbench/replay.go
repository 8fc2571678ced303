package main

import (
	"errors"
	"fmt"
	"slices"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/eventsim"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/migration"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/queue"
	"affinitycluster/internal/stats"
	"affinitycluster/internal/topology"
)

// layerSim is the layer replay's stand-in for cloudsim: it serves the
// same generated requests with the same layer calls cloudsim makes
// (eventsim for time, the indexed placer or Algorithm 2 for placement,
// the inventory for commits, sketches for waits and distances, the obs
// registry for events, the migration planner after departures) and times
// each call with a span. Like cloudsim it keeps live clusters as dense
// allocations and releases them with the dense Release. Its own
// bookkeeping runs inside replay.event spans and is charged to no layer.
// It skips fault injection, so it approximates, not reproduces, the real
// run's occupancy.
type layerSim struct {
	tr     *tracer
	topo   *topology.Topology
	inv    *inventory.Inventory
	tidx   *affinity.TierIndex
	online *placement.OnlineHeuristic
	global *placement.GlobalSubOpt
	mig    *migration.Planner
	reg    *obs.Registry
	eng    *eventsim.Engine
	q      *queue.Queue
	dist   *stats.Quantile
	wait   *stats.Quantile

	batch        bool    // drain batches through Algorithm 2
	migrate      bool    // plan migrations after every departure
	window       float64 // batch window, simulated seconds (0 = serve on arrival)
	drainPending bool

	sp       affinity.SparseAlloc
	running  map[int]affinity.Allocation
	nextID   int
	failed   error
	placeErr int // PlaceSparse calls that found no room
	batchN   int // requests offered to PlaceBatch
	useful   int // planner calls that yielded at least one move
}

func newLayerSim(tr *tracer, tp *topology.Topology, inv *inventory.Inventory, waitMax float64) (*layerSim, error) {
	tidx, err := inv.AttachTierIndex(tp)
	if err != nil {
		return nil, err
	}
	sink := &traceSink{}
	sink.tr = tr
	reg := obs.NewStreamingRegistry(sink)
	online := &placement.OnlineHeuristic{Obs: reg}
	return &layerSim{
		tr: tr, topo: tp, inv: inv, tidx: tidx, online: online,
		global:  &placement.GlobalSubOpt{Online: online, Obs: reg},
		mig:     &migration.Planner{Obs: reg},
		reg:     reg,
		eng:     eventsim.New(),
		q:       queue.New(queue.FIFO, 0),
		dist:    stats.NewQuantile(0, 200, 400),
		wait:    stats.NewQuantile(0, waitMax, 400),
		running: make(map[int]affinity.Allocation),
	}, nil
}

// event wraps a callback in a replay.event span, so eventsim.Step's self
// time excludes the replay's own work.
func (s *layerSim) event(fn func(now float64)) func(now float64) {
	return func(now float64) {
		id := s.tr.begin("replay.event")
		fn(now)
		s.tr.end(id)
	}
}

func (s *layerSim) fail(err error) {
	if s.failed == nil {
		s.failed = err
	}
}

// schedule adds one request's arrival (at class -1, like cloudsim's
// streamed arrivals); then, if non-nil, pulls the next one.
func (s *layerSim) schedule(r model.TimedRequest, then func()) {
	_, err := s.eng.AtClass(r.Arrival, -1, s.event(func(now float64) {
		s.arrive(r, now)
		if then != nil {
			then()
		}
	}))
	if err != nil {
		s.fail(err)
	}
}

// stream schedules the source's requests one at a time.
func (s *layerSim) stream(src model.RequestSource) {
	r, ok, err := src.Next()
	if err != nil {
		s.fail(err)
		return
	}
	if ok {
		s.schedule(r, func() { s.stream(src) })
	}
}

// runEngine steps the engine to completion, one eventsim.Step span each.
func (s *layerSim) runEngine() error {
	for s.failed == nil {
		id := s.tr.begin("eventsim.Step")
		more := s.eng.Step()
		s.tr.end(id)
		if !more {
			break
		}
	}
	if s.failed != nil {
		return s.failed
	}
	if err := s.reg.SinkErr(); err != nil {
		return err
	}
	return s.inv.CheckInvariants()
}

func (s *layerSim) emit(kind string, now float64, fields ...obs.Field) {
	id := s.tr.begin("obs.Emit")
	s.reg.Emit(kind, now, fields...)
	s.tr.end(id)
}

func (s *layerSim) arrive(r model.TimedRequest, now float64) {
	if !s.inv.CanEverSatisfy(r.Vector) {
		s.emit("queue_reject", now, obs.F("req", int(r.ID)), obs.F("reason", "oversized"))
		return
	}
	if s.window > 0 {
		if err := s.q.Enqueue(r); err != nil {
			s.fail(err)
			return
		}
		s.emit("queue_admit", now, obs.F("req", int(r.ID)))
		if !s.drainPending {
			s.drainPending = true
			if _, err := s.eng.After(s.window, s.event(func(at float64) {
				s.drainPending = false
				s.drain(at)
			})); err != nil {
				s.fail(err)
			}
		}
		return
	}
	if s.inv.CanSatisfy(r.Vector) && s.q.Len() == 0 && s.place(r, now) {
		return
	}
	if err := s.q.Enqueue(r); err != nil {
		s.fail(err)
		return
	}
	s.emit("queue_admit", now, obs.F("req", int(r.ID)))
}

// place serves one request with the indexed placer and a sparse commit.
func (s *layerSim) place(r model.TimedRequest, now float64) bool {
	id := s.tr.begin("placement.PlaceSparse")
	d, center, err := s.online.PlaceSparse(s.tidx, r.Vector, &s.sp)
	s.tr.end(id)
	if err != nil {
		if errors.Is(err, placement.ErrInsufficient) {
			s.placeErr++
		} else {
			s.fail(err)
		}
		return false
	}
	id = s.tr.begin("inventory.AllocateList")
	err = s.inv.AllocateList(s.sp.Entries)
	s.tr.end(id)
	if err != nil {
		s.fail(err)
		return false
	}
	s.commission(r, s.sp.ToDense(), d, center, now)
	return true
}

func (s *layerSim) commission(r model.TimedRequest, alloc affinity.Allocation, d float64, center topology.NodeID, now float64) {
	w := now - r.Arrival
	id := s.tr.begin("stats.Observe")
	s.dist.Observe(d)
	s.wait.Observe(w)
	s.tr.end(id)
	s.emit("place", now,
		obs.F("req", int(r.ID)),
		obs.F("center", int(center)),
		obs.F("dc", d),
		obs.F("vms", alloc.TotalVMs()),
		obs.F("wait", w))
	cid := s.nextID
	s.nextID++
	s.running[cid] = alloc
	if _, err := s.eng.After(r.Hold, s.event(func(at float64) { s.depart(cid, r.ID, at) })); err != nil {
		s.fail(err)
	}
}

func (s *layerSim) depart(cid int, rid model.RequestID, now float64) {
	alloc := s.running[cid]
	delete(s.running, cid)
	id := s.tr.begin("inventory.Release")
	err := s.inv.Release([][]int(alloc))
	s.tr.end(id)
	if err != nil {
		s.fail(fmt.Errorf("releasing cluster %d: %w", cid, err))
		return
	}
	d, _ := alloc.Distance(s.topo)
	s.emit("depart", now, obs.F("req", int(rid)), obs.F("dc", d))
	s.drain(now)
	if s.migrate {
		s.plan(now)
	}
}

// drain serves what the queue can now admit: a batch through Algorithm 2
// with dense commits, or request by request.
func (s *layerSim) drain(now float64) {
	taken := s.q.GetRequests(s.inv.Available())
	if s.batch && len(taken) > 1 {
		vecs := make([]model.Request, len(taken))
		for i, r := range taken {
			vecs[i] = r.Vector
		}
		s.batchN += len(taken)
		id := s.tr.begin("placement.PlaceBatch")
		res, err := s.global.PlaceBatch(s.topo, s.inv.RemainingView(), vecs)
		s.tr.end(id)
		if err == nil {
			for i, alloc := range res.Allocs {
				if alloc == nil {
					s.requeue(taken[i])
					continue
				}
				id := s.tr.begin("inventory.Allocate")
				err := s.inv.Allocate([][]int(alloc))
				s.tr.end(id)
				if err != nil {
					s.requeue(taken[i])
					continue
				}
				d, center := alloc.Distance(s.topo)
				s.commission(taken[i], alloc, d, center, now)
			}
			return
		}
	}
	for _, r := range taken {
		if !s.place(r, now) {
			s.requeue(r)
		}
	}
}

func (s *layerSim) requeue(r model.TimedRequest) {
	if err := s.q.Enqueue(r); err != nil {
		s.fail(err)
	}
}

// plan runs the migration planner over the running clusters, in id
// order, and applies its moves the way cloudsim does.
func (s *layerSim) plan(now float64) {
	if len(s.running) == 0 {
		return
	}
	ids := make([]int, 0, len(s.running))
	for id := range s.running {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	clusters := make([]affinity.Allocation, len(ids))
	for i, id := range ids {
		clusters[i] = s.running[id]
	}
	id := s.tr.begin("migration.Plan")
	p, err := s.mig.Plan(s.topo, s.inv.RemainingView(), clusters)
	s.tr.end(id)
	if err != nil || len(p.Moves) == 0 {
		return
	}
	s.useful++
	for _, mv := range p.Moves {
		c := clusters[mv.Cluster]
		switch mv.Kind {
		case migration.Relocate:
			if err := s.inv.Move(mv.From, mv.To, mv.Type); err != nil {
				return
			}
			c.Remove(mv.From, mv.Type)
			c.Add(mv.To, mv.Type)
		case migration.Swap:
			peer := clusters[mv.Peer]
			c.Remove(mv.From, mv.Type)
			c.Add(mv.To, mv.Type)
			peer.Remove(mv.To, mv.Type)
			peer.Add(mv.From, mv.Type)
		}
		s.emit("migrate", now,
			obs.F("move", mv.Kind.String()),
			obs.F("from", int(mv.From)),
			obs.F("to", int(mv.To)),
			obs.F("type", int(mv.Type)),
			obs.F("gain", mv.Gain),
			obs.F("cost_mb", mv.CostMB))
	}
}

// counts are the layer replay's own ratios, with their bases.
func (s *layerSim) counts() map[string]float64 {
	out := map[string]float64{}
	totals := s.tr.totals()
	if calls := totals["placement.PlaceSparse"].calls; calls > 0 {
		out["placement.insufficient_frac"] = float64(s.placeErr) / float64(calls)
	}
	if calls := totals["placement.PlaceBatch"].calls; calls > 0 {
		out["placement.batch_size_mean"] = float64(s.batchN) / float64(calls)
	}
	if calls := totals["migration.Plan"].calls; calls > 0 {
		out["migration.useful_frac"] = float64(s.useful) / float64(calls)
	}
	return out
}
