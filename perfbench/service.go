package main

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/service"
	"affinitycluster/internal/topology"
	"affinitycluster/internal/workload"
)

// The service workload is a closed loop: serviceClients goroutines each
// run serviceCycles cycles of Place → Grow → Shrink → Release against a
// 256-node plant prefilled with long-lived clusters to serviceOccupancy of
// its VM slots (or less, see prefill).
const (
	serviceClients     = 2
	serviceCycles      = 12_500
	smokeServiceCycles = 100
	serviceOccupancy   = 0.6
)

// cycle is one client iteration: the cluster to place and the delta it
// grows by and then shrinks by.
type cycle struct{ place, delta model.Request }

type serviceInputs struct {
	topo    *topology.Topology
	caps    [][]int
	prefill []model.Request
	work    [][]cycle // per client
}

// makeServiceInputs draws every request from the open-loop size
// distribution: cycles from seed+1, the prefill (part of the fixed plant)
// from plantSeed. The prefill stops short of the headroom the two clients
// need at once (the two largest place+grow footprints, per type), so no
// call ever finds the plant full: no Place parks in the wait queue and no
// Grow is refused, and the clients can never deadlock on each other.
func makeServiceInputs(seed int64, smoke bool) (*serviceInputs, error) {
	tp, err := topology.Uniform(2, 8, 16, topology.DefaultDistances())
	if err != nil {
		return nil, err
	}
	cfg := workload.DefaultOpenLoopConfig()
	caps, err := workload.RandomCapacities(plantSeed, tp.Nodes(), cfg.Types, workload.InventoryConfig{MaxPerType: 2})
	if err != nil {
		return nil, err
	}
	cycles := serviceCycles
	if smoke {
		cycles = smokeServiceCycles
	}
	gen, err := workload.NewOpenLoop(seed+1, 2*cycles*serviceClients, cfg)
	if err != nil {
		return nil, err
	}
	in := &serviceInputs{topo: tp, caps: caps, work: make([][]cycle, serviceClients)}
	top1, top2 := make([]int, cfg.Types), make([]int, cfg.Types)
	for c := range in.work {
		for i := 0; i < cycles; i++ {
			var cy cycle
			for _, dst := range []*model.Request{&cy.place, &cy.delta} {
				r, _, err := gen.Next()
				if err != nil {
					return nil, err
				}
				*dst = r.Vector
			}
			for t := range top1 {
				switch v := cy.place[t] + cy.delta[t]; {
				case v > top1[t]:
					top1[t], top2[t] = v, top1[t]
				case v > top2[t]:
					top2[t] = v
				}
			}
			in.work[c] = append(in.work[c], cy)
		}
	}
	limit := make([]int, cfg.Types) // prefill may use up to limit[t] VMs of type t
	total := 0
	for t := range limit {
		for _, row := range caps {
			limit[t] += row[t]
		}
		total += limit[t]
		limit[t] -= top1[t] + top2[t]
	}
	pre, err := workload.NewOpenLoop(plantSeed, 1<<20, cfg)
	if err != nil {
		return nil, err
	}
	used := make([]int, cfg.Types)
	usedAll := 0
	for float64(usedAll) < serviceOccupancy*float64(total) {
		r, _, err := pre.Next()
		if err != nil {
			return nil, err
		}
		fits := true
		for t, v := range r.Vector {
			fits = fits && used[t]+v <= limit[t]
		}
		if !fits {
			break
		}
		for t, v := range r.Vector {
			used[t] += v
			usedAll += v
		}
		in.prefill = append(in.prefill, r.Vector)
	}
	return in, nil
}

// clientResult is what one client goroutine observed.
type clientResult struct {
	lat    []float64 // Place latency, µs
	dcSum  float64
	places int
	calls  int
	errs   []error
}

// note counts one call and keeps its error; it reports success.
func (r *clientResult) note(name string, err error) bool {
	r.calls++
	if err != nil {
		r.errs = append(r.errs, fmt.Errorf("%s: %w", name, err))
	}
	return err == nil
}

// runClient runs one client's cycles; mem may be nil (only one client
// samples the heap).
func runClient(svc *service.Service, cycles []cycle, tr *tracer, mem *memSampler) clientResult {
	res := clientResult{lat: make([]float64, 0, len(cycles))}
	held := make([]affinity.VMEntry, 0, 256)
	for _, cy := range cycles {
		t0 := time.Now()
		id := tr.begin("service.Place")
		pl, err := svc.Place(cy.place)
		tr.end(id)
		res.lat = append(res.lat, float64(time.Since(t0).Nanoseconds())/1e3)
		if mem != nil {
			mem.op()
		}
		if !res.note("Place", err) {
			continue
		}
		res.places++
		res.dcSum += pl.DC
		held = append(held[:0], pl.Entries...)
		id = tr.begin("service.Grow")
		grown, err := svc.Grow(held, cy.delta)
		tr.end(id)
		if res.note("Grow", err) {
			held = append(held, grown.Entries...)
			id = tr.begin("service.Shrink")
			victims, err := svc.Shrink(held, cy.delta)
			tr.end(id)
			if res.note("Shrink", err) {
				held = subtractEntries(held, victims)
			}
		}
		id = tr.begin("service.Release")
		err = svc.Release(held)
		tr.end(id)
		res.note("Release", err)
	}
	return res
}

// subtractEntries removes the victims' counts from held, dropping emptied
// cells.
func subtractEntries(held, victims []affinity.VMEntry) []affinity.VMEntry {
	for _, v := range victims {
		left := v.Count
		for i := range held {
			if left == 0 {
				break
			}
			if held[i].Node == v.Node && held[i].Type == v.Type {
				take := min(left, held[i].Count)
				held[i].Count -= take
				left -= take
			}
		}
	}
	return slices.DeleteFunc(held, func(e affinity.VMEntry) bool { return e.Count == 0 })
}

// servicePass sets up a prefilled service; the pass runs the clients
// concurrently, then releases the prefill, closes the service and checks
// its ledgers.
func servicePass(seed int64, smoke bool) (*pending, error) {
	in, err := makeServiceInputs(seed, smoke)
	if err != nil {
		return nil, err
	}
	inv, err := inventory.NewFromMatrix(in.caps)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{Topology: in.topo, Inventory: inv})
	if err != nil {
		return nil, err
	}
	prefill := make([][]affinity.VMEntry, 0, len(in.prefill))
	for _, r := range in.prefill {
		pl, err := svc.Place(r)
		if err != nil {
			_ = svc.Close() // the prefill error is the one to report
			return nil, fmt.Errorf("prefill: %w", err)
		}
		prefill = append(prefill, pl.Entries)
	}
	return &pending{
		run: func(tr *tracer) (*pass, error) { return runService(svc, inv, in, prefill, tr) },
		// A dropped pass is never measured; its Close error changes nothing.
		drop: func() { _ = svc.Close() },
	}, nil
}

func runService(svc *service.Service, inv *inventory.Inventory, in *serviceInputs, prefill [][]affinity.VMEntry, tr *tracer) (*pass, error) {
	filled := inv.Remaining()
	mem := newMemSampler(memStride)
	tracers := make([]*tracer, serviceClients)
	results := make([]clientResult, serviceClients)
	var wg sync.WaitGroup
	t1, c1 := time.Now(), cpuTime()
	for c := range in.work {
		if tr != nil {
			tracers[c] = newTracer()
		}
		var m *memSampler
		if c == 0 {
			m = mem
		}
		wg.Add(1)
		go func(c int, m *memSampler) {
			defer wg.Done()
			results[c] = runClient(svc, in.work[c], tracers[c], m)
		}(c, m)
	}
	wg.Wait()
	wall, cpu := time.Since(t1), cpuTime()-c1
	peak, allocBytes, allocObjects := mem.finish()

	p := &pass{wall: wall, cpu: cpu, peakLive: peak, allocBytes: allocBytes, allocObjects: allocObjects, tr: tr}
	var errs []error
	for c, r := range results {
		p.ops += r.calls
		p.failed += len(r.errs)
		p.lat = append(p.lat, r.lat...)
		p.dcSum += r.dcSum
		p.dcN += r.places
		errs = append(errs, r.errs...)
		if tr != nil {
			tr.merge(tracers[c])
		}
	}
	if !slices.EqualFunc(inv.Remaining(), filled, slices.Equal[[]int]) {
		errs = append(errs, errors.New("remaining capacity did not return to the prefilled state after the clients released everything"))
	}
	for _, e := range prefill {
		if err := svc.Release(e); err != nil {
			errs = append(errs, fmt.Errorf("releasing prefill: %w", err))
		}
	}
	if !slices.EqualFunc(inv.Remaining(), in.caps, slices.Equal[[]int]) {
		errs = append(errs, errors.New("remaining capacity did not return to the full plant after the prefill was released"))
	}
	if err := svc.Close(); err != nil {
		errs = append(errs, fmt.Errorf("closing service: %w", err))
	}
	st := svc.Stats()
	if st.Placed != st.Released {
		errs = append(errs, fmt.Errorf("service placed %d clusters but released %d", st.Placed, st.Released))
	}
	if st.Grown != st.Shrunk {
		errs = append(errs, fmt.Errorf("service grew %d clusters but shrank %d", st.Grown, st.Shrunk))
	}
	// The service counts an op once its whole batch is applied, after the
	// caller may already have its answer, so only the closed service's
	// count is exact: every prefill place and release plus every call.
	if want := uint64(2*len(prefill) + p.ops); st.Ops != want {
		errs = append(errs, fmt.Errorf("service applied %d ops, want %d", st.Ops, want))
	}
	if err := inv.CheckInvariants(); err != nil {
		errs = append(errs, err)
	}
	p.counts = map[string]float64{
		"service.batches":       float64(st.Batches),
		"service.ops_per_batch": float64(st.Ops) / float64(max(st.Batches, 1)),
		"service.queued_frac":   float64(st.Queued) / float64(max(st.Placed, 1)),
	}
	return p, errors.Join(errs...)
}

// serviceReplay applies the same calls straight to the layers the
// service's apply loop uses (indexed placement, delta placement, shrink
// victim choice, sparse commits), on one goroutine, with both clients'
// clusters live at once as in the real run.
//
//lint:owner singlewriter
func serviceReplay(seed int64, smoke bool) (*replay, error) {
	in, err := makeServiceInputs(seed, smoke)
	if err != nil {
		return nil, err
	}
	inv, err := inventory.NewFromMatrix(in.caps)
	if err != nil {
		return nil, err
	}
	tidx, err := inv.AttachTierIndex(in.topo)
	if err != nil {
		return nil, err
	}
	online := &placement.OnlineHeuristic{}
	var sp affinity.SparseAlloc
	for _, r := range in.prefill {
		if _, _, err := online.PlaceSparse(tidx, r, &sp); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
		if err := inv.AllocateList(sp.Entries); err != nil {
			return nil, fmt.Errorf("prefill: %w", err)
		}
	}
	tr := newTracer()
	timed := func(name string, f func() error) error {
		id := tr.begin(name)
		err := f()
		tr.end(id)
		return err
	}
	held := make([][]affinity.VMEntry, serviceClients)
	ops := 0
	root := tr.begin("replay")
	for i := range in.work[0] {
		for c := range held {
			cy := in.work[c][i]
			err := timed("placement.PlaceSparse", func() (err error) { _, _, err = online.PlaceSparse(tidx, cy.place, &sp); return })
			if err == nil {
				err = timed("inventory.AllocateList", func() error { return inv.AllocateList(sp.Entries) })
			}
			if err != nil {
				return nil, fmt.Errorf("layer replay: place: %w", err)
			}
			held[c] = slices.Clone(sp.Entries)
		}
		for c := range held {
			cy := in.work[c][i]
			err := timed("placement.PlaceDeltaSparse", func() (err error) { _, _, err = online.PlaceDeltaSparse(tidx, held[c], cy.delta, &sp); return })
			if err == nil {
				err = timed("inventory.AllocateList", func() error { return inv.AllocateList(sp.Entries) })
			}
			if err != nil {
				return nil, fmt.Errorf("layer replay: grow: %w", err)
			}
			held[c] = append(held[c], sp.Entries...)
		}
		for c := range held {
			cy := in.work[c][i]
			var victims []affinity.VMEntry
			err := timed("placement.ReleaseSubsetSparse", func() (err error) { victims, err = placement.ReleaseSubsetSparse(in.topo, held[c], cy.delta); return })
			if err == nil {
				err = timed("inventory.ReleaseList", func() error { return inv.ReleaseList(victims) })
			}
			if err != nil {
				return nil, fmt.Errorf("layer replay: shrink: %w", err)
			}
			held[c] = subtractEntries(held[c], victims)
		}
		for c := range held {
			if err := timed("inventory.ReleaseList", func() error { return inv.ReleaseList(held[c]) }); err != nil {
				return nil, fmt.Errorf("layer replay: release: %w", err)
			}
		}
		ops += 4 * len(held)
	}
	tr.end(root)
	if err := inv.CheckInvariants(); err != nil {
		return nil, err
	}
	return &replay{tr: tr, ops: ops, counts: map[string]float64{}}, nil
}
