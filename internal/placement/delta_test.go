package placement

import (
	"math/rand"
	"reflect"
	"testing"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// deltaPlant is a fixed 2-cloud plant for the targeted delta tests.
func deltaPlant(t *testing.T) *topology.Topology {
	t.Helper()
	tp, err := topology.Uniform(2, 3, 4, topology.DefaultDistances())
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// randomRequest draws a per-type demand with at least one VM.
func randomRequest(rng *rand.Rand, m, scale int) model.Request {
	r := make(model.Request, m)
	total := 0
	for j := range r {
		r[j] = rng.Intn(scale)
		total += r[j]
	}
	if total == 0 {
		r[rng.Intn(m)] = 1
	}
	return r
}

// TestPlaceDeltaEmptyEqualsPlace: growing an empty cluster IS placing —
// PlaceDeltaSparse with no current entries must reproduce Place bit for
// bit, center scan included.
func TestPlaceDeltaEmptyEqualsPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		tp := randomPlant(t, rng)
		n := tp.Nodes()
		m := 1 + rng.Intn(3)
		work := make([][]int, n)
		for i := range work {
			work[i] = make([]int, m)
			for j := range work[i] {
				work[i][j] = rng.Intn(4)
			}
		}
		h := &OnlineHeuristic{Policy: ScanAllCenters}
		r := randomRequest(rng, m, n)
		want, wantErr := h.Place(tp, work, r)
		idx, err := affinity.NewTierIndex(tp, work)
		if err != nil {
			t.Fatal(err)
		}
		var sp affinity.SparseAlloc
		_, _, gotErr := h.PlaceDeltaSparse(idx, nil, r, &sp)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: PlaceDeltaSparse err %v, Place err %v", trial, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		got := affinity.NewAllocation(n, m)
		for _, e := range sp.Entries {
			got[e.Node][e.Type] += e.Count
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: empty-cluster PlaceDeltaSparse differs from Place\ngot  %v\nwant %v", trial, got, want)
		}
	}
}

// TestPlaceDeltaLockstepOracleProperty grows random clusters step by
// step and checks each delta against the dense reference: the greedy
// fill (buildBuffer.buildAround) of the delta around the cluster's
// current central node, with the merged DC/center recomputed from
// scratch. Entries, DC and center must match exactly — the
// tier-aggregated delta path must be invisible next to a full dense
// re-placement of the delta.
func TestPlaceDeltaLockstepOracleProperty(t *testing.T) {
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(9000 + trial)))
		tp := randomPlant(t, rng)
		n := tp.Nodes()
		m := 1 + rng.Intn(3)
		work := make([][]int, n)
		for i := range work {
			work[i] = make([]int, m)
			for j := range work[i] {
				work[i][j] = rng.Intn(5)
			}
		}
		h := &OnlineHeuristic{Policy: ScanAllCenters}
		seed := randomRequest(rng, m, n/2+1)
		cluster, err := h.Place(tp, work, seed)
		if err != nil {
			continue
		}
		for i := range cluster {
			for j, k := range cluster[i] {
				work[i][j] -= k
			}
		}
		var sp affinity.SparseAlloc
		for step := 0; step < 8; step++ {
			delta := randomRequest(rng, m, 4)
			// Oracle: fill delta around the cluster's current center on a
			// private copy, merge, and rescore from scratch.
			_, center0 := cluster.Distance(tp)
			buf := newBuildBuffer(n, m)
			okOracle := buf.buildAround(tp, work, delta, center0)
			oracleDelta := buf.alloc.Clone()
			merged := cluster.Clone()
			for i := range oracleDelta {
				for j, k := range oracleDelta[i] {
					merged[i][j] += k
				}
			}
			wantDC, wantK := merged.Distance(tp)

			// A fresh index over the current free capacity, as a caller
			// without a persistent one would build.
			idx, err := affinity.NewTierIndex(tp, work)
			if err != nil {
				t.Fatal(err)
			}
			cur := cluster.Sparse()
			before := append([]affinity.VMEntry(nil), cur...)
			dc, k, err := h.PlaceDeltaSparse(idx, cur, delta, &sp)
			if err != nil {
				if okOracle {
					t.Fatalf("trial %d step %d: PlaceDeltaSparse failed (%v) where oracle built", trial, step, err)
				}
				if !reflect.DeepEqual(cur, before) {
					t.Fatalf("trial %d step %d: failed PlaceDeltaSparse mutated the cluster entries", trial, step)
				}
				break
			}
			entries := sp.Entries
			gotDelta := affinity.NewAllocation(n, m)
			for _, e := range entries {
				gotDelta[e.Node][e.Type] += e.Count
				cluster[e.Node][e.Type] += e.Count
			}
			if !reflect.DeepEqual(gotDelta, oracleDelta) {
				t.Fatalf("trial %d step %d: delta build differs from dense oracle around center %d\ngot  %v\nwant %v\ndelta %v",
					trial, step, center0, gotDelta, oracleDelta, delta)
			}
			if dc != wantDC || k != wantK {
				t.Fatalf("trial %d step %d: merged score (%v, %d), scratch (%v, %d)", trial, step, dc, k, wantDC, wantK)
			}
			if !reflect.DeepEqual(cluster, merged) {
				t.Fatalf("trial %d step %d: merged cluster diverged from the oracle merge", trial, step)
			}
			for _, e := range entries {
				work[e.Node][e.Type] -= e.Count
			}
		}
	}
}

// TestReleaseSubsetGreedyVictims: for a single-VM shrink the greedy
// victim must be exactly the argmin over all possible removals, and any
// shrink must conserve the per-type vector while leaving victims that
// were really part of the cluster.
func TestReleaseSubsetGreedyVictims(t *testing.T) {
	const trials = 50
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(4000 + trial)))
		tp := randomPlant(t, rng)
		n := tp.Nodes()
		m := 1 + rng.Intn(3)
		a := affinity.NewAllocation(n, m)
		for v := 0; v < 6+rng.Intn(12); v++ {
			a.Add(topology.NodeID(rng.Intn(n)), model.VMTypeID(rng.Intn(m)))
		}
		// Brute force the best single removal of the lowest type with stock.
		j := 0
		for ; j < m; j++ {
			if a.Vector()[j] > 0 {
				break
			}
		}
		bestDC := -1.0
		bestNode := topology.NodeID(-1)
		for i := 0; i < n; i++ {
			if a[i][j] == 0 {
				continue
			}
			a.Remove(topology.NodeID(i), model.VMTypeID(j))
			dc, _ := a.Distance(tp)
			a.Add(topology.NodeID(i), model.VMTypeID(j))
			if bestNode < 0 || dc < bestDC {
				bestDC, bestNode = dc, topology.NodeID(i)
			}
		}
		delta := make(model.Request, m)
		delta[j] = 1
		got := a.Clone()
		victims, err := ReleaseSubsetSparse(tp, got.Sparse(), delta)
		if err != nil {
			t.Fatalf("trial %d: ReleaseSubsetSparse: %v", trial, err)
		}
		if len(victims) != 1 || victims[0].Count != 1 || victims[0].Type != model.VMTypeID(j) {
			t.Fatalf("trial %d: single-VM shrink returned %v", trial, victims)
		}
		got.Remove(victims[0].Node, victims[0].Type)
		gotDC, _ := got.Distance(tp)
		if gotDC != bestDC {
			t.Fatalf("trial %d: greedy victim %v leaves DC %v, best single removal (node %d) leaves %v",
				trial, victims, gotDC, bestNode, bestDC)
		}
	}
}

// TestReleaseSubsetConservesAndConcentrates: a multi-VM shrink returns
// exactly the per-type delta, and on a cluster straddling two racks it
// gives back the straggler VMs first, collapsing DC to the one-rack
// optimum.
func TestReleaseSubsetConservesAndConcentrates(t *testing.T) {
	tp := deltaPlant(t)
	a := affinity.NewAllocation(tp.Nodes(), 1)
	// 6 VMs on rack 0 (nodes 0, 1), 2 stragglers on rack 1 (node 4) and
	// rack 2 (node 8).
	a[0][0] = 4
	a[1][0] = 2
	a[4][0] = 1
	a[8][0] = 1
	victims, err := ReleaseSubsetSparse(tp, a.Sparse(), model.Request{2})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, v := range victims {
		a[v.Node][v.Type] -= v.Count
		total += v.Count
		if v.Node != 4 && v.Node != 8 {
			t.Errorf("shrink victimized core node %d instead of a straggler", v.Node)
		}
	}
	if total != 2 {
		t.Fatalf("shrink returned %d VMs, want 2", total)
	}
	if a.TotalVMs() != 6 {
		t.Fatalf("cluster holds %d VMs after shrink, want 6", a.TotalVMs())
	}
	dc, k := a.Distance(tp)
	if want := 2 * tp.Distances().SameRack; dc != want || k != 0 {
		t.Fatalf("post-shrink DC (%v, %d), want (%v, 0)", dc, k, want)
	}
	// Infeasible shrink: asks back more than the cluster holds.
	if _, err := ReleaseSubsetSparse(tp, a.Sparse(), model.Request{7}); err == nil {
		t.Fatal("oversized shrink accepted")
	}
}

// TestReleaseSubsetDoesNotAlias: the victims slice aliases neither the
// caller's entry slice nor anything that changes under later calls —
// mutating it must not perturb the inputs or a repeat run.
func TestReleaseSubsetDoesNotAlias(t *testing.T) {
	tp := deltaPlant(t)
	a := affinity.NewAllocation(tp.Nodes(), 2)
	a[0][0], a[0][1], a[5][0], a[9][1] = 2, 1, 1, 1
	cur := a.Sparse()
	curCopy := append([]affinity.VMEntry(nil), cur...)
	victims, err := ReleaseSubsetSparse(tp, cur, model.Request{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := range victims {
		victims[i] = affinity.VMEntry{Node: -99, Type: -99, Count: -99}
	}
	if !reflect.DeepEqual(cur, curCopy) {
		t.Fatal("mutating victims changed the caller's entries; slices alias")
	}
	again, err := ReleaseSubsetSparse(tp, cur, model.Request{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range again {
		if v.Count <= 0 || v.Node < 0 {
			t.Fatalf("repeat run returned poisoned entry %v; internal state aliased", v)
		}
	}
}

// TestDeltaChurnTierIndexLockstep is the grow/shrink churn property test
// of the shrink-path audit: PlaceDeltaSparse, ReleaseSubsetSparse and
// FailNode interleave against a live inventory with an attached tier
// index, and after every mutation the index must agree with a from-
// scratch rebuild (CheckConsistent) and the inventory's conservation
// identities must hold. Tracked cluster state is kept in caller-owned
// entry slices, so any aliasing between the release path and the index
// would surface as divergence.
func TestDeltaChurnTierIndexLockstep(t *testing.T) {
	const trials = 12
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7700 + trial)))
		tp := deltaPlant(t)
		n := tp.Nodes()
		const m = 2
		caps := make([][]int, n)
		for i := range caps {
			caps[i] = []int{2 + rng.Intn(3), 2 + rng.Intn(3)}
		}
		inv, err := inventory.NewFromMatrix(caps)
		if err != nil {
			t.Fatal(err)
		}
		tidx, err := inv.AttachTierIndex(tp)
		if err != nil {
			t.Fatal(err)
		}
		h := &OnlineHeuristic{Policy: ScanAllCenters}
		var sp affinity.SparseAlloc
		type cluster struct{ entries []affinity.VMEntry }
		var clusters []*cluster
		failed := []topology.NodeID{}

		check := func(op string, step int) {
			t.Helper()
			if err := tidx.CheckConsistent(); err != nil {
				t.Fatalf("trial %d step %d after %s: tier index inconsistent: %v", trial, step, op, err)
			}
			if err := inv.CheckInvariants(); err != nil {
				t.Fatalf("trial %d step %d after %s: inventory invariants: %v", trial, step, op, err)
			}
		}

		for step := 0; step < 60; step++ {
			switch op := rng.Intn(10); {
			case op < 3: // place a new cluster
				r := randomRequest(rng, m, 3)
				if _, _, err := h.PlaceSparse(tidx, r, &sp); err != nil {
					continue
				}
				entries := append([]affinity.VMEntry(nil), sp.Entries...)
				if err := inv.AllocateList(entries); err != nil {
					t.Fatalf("trial %d step %d: commit: %v", trial, step, err)
				}
				clusters = append(clusters, &cluster{entries: entries})
				check("place", step)
			case op < 6 && len(clusters) > 0: // grow one
				c := clusters[rng.Intn(len(clusters))]
				delta := randomRequest(rng, m, 2)
				dc, _, err := h.PlaceDeltaSparse(tidx, c.entries, delta, &sp)
				if err != nil {
					continue
				}
				grown := append([]affinity.VMEntry(nil), sp.Entries...)
				if err := inv.AllocateList(grown); err != nil {
					t.Fatalf("trial %d step %d: grow commit: %v", trial, step, err)
				}
				c.entries = append(c.entries, grown...)
				// The returned DC must price the merged cluster exactly.
				dense := affinity.NewAllocation(n, m)
				for _, e := range c.entries {
					dense[e.Node][e.Type] += e.Count
				}
				if want, _ := dense.Distance(tp); dc != want {
					t.Fatalf("trial %d step %d: grow DC %v, dense %v", trial, step, dc, want)
				}
				check("grow", step)
			case op < 8 && len(clusters) > 0: // shrink one
				ci := rng.Intn(len(clusters))
				c := clusters[ci]
				vec := make(model.Request, m)
				for _, e := range c.entries {
					vec[e.Type] += e.Count
				}
				delta := make(model.Request, m)
				some := false
				for j := range delta {
					if vec[j] > 0 {
						delta[j] = rng.Intn(vec[j] + 1)
						some = some || delta[j] > 0
					}
				}
				if !some {
					continue
				}
				victims, err := ReleaseSubsetSparse(tp, c.entries, delta)
				if err != nil {
					t.Fatalf("trial %d step %d: shrink: %v", trial, step, err)
				}
				if err := inv.ReleaseList(victims); err != nil {
					t.Fatalf("trial %d step %d: shrink release: %v", trial, step, err)
				}
				// Rebuild the tracked entries minus the victims.
				dense := affinity.NewAllocation(n, m)
				for _, e := range c.entries {
					dense[e.Node][e.Type] += e.Count
				}
				for _, v := range victims {
					dense[v.Node][v.Type] -= v.Count
					if dense[v.Node][v.Type] < 0 {
						t.Fatalf("trial %d step %d: victim %v exceeds cluster", trial, step, v)
					}
				}
				c.entries = dense.Sparse()
				if len(c.entries) == 0 {
					clusters = append(clusters[:ci], clusters[ci+1:]...)
				}
				check("shrink", step)
			case op == 8 && len(failed) < 3: // fail a node
				id := topology.NodeID(rng.Intn(n))
				lost, err := inv.FailNode(id)
				if err != nil {
					continue
				}
				failed = append(failed, id)
				_ = lost
				// Crashed VMs vanish from their clusters, like cloudsim's
				// degrade step.
				for ci := 0; ci < len(clusters); {
					c := clusters[ci]
					kept := c.entries[:0]
					for _, e := range c.entries {
						if e.Node != id {
							kept = append(kept, e)
						}
					}
					c.entries = kept
					if len(c.entries) == 0 {
						clusters = append(clusters[:ci], clusters[ci+1:]...)
						continue
					}
					ci++
				}
				check("fail", step)
			default: // repair
				if len(failed) == 0 {
					continue
				}
				id := failed[len(failed)-1]
				failed = failed[:len(failed)-1]
				if err := inv.RestoreNode(id); err != nil {
					t.Fatalf("trial %d step %d: restore: %v", trial, step, err)
				}
				check("restore", step)
			}
		}
		// Drain everything; the plant must come back fully free.
		for _, c := range clusters {
			if err := inv.ReleaseList(c.entries); err != nil {
				t.Fatalf("trial %d: final release: %v", trial, err)
			}
		}
		check("drain", -1)
	}
}

// TestPlaceDeltaZeroAllocs pins the hot-path contract: once the scratch
// and destination have reached working size, a grow/release cycle
// allocates nothing.
func TestPlaceDeltaZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gate skipped under -race (instrumentation allocates)")
	}
	tp := deltaPlant(t)
	n := tp.Nodes()
	caps := make([][]int, n)
	for i := range caps {
		caps[i] = []int{4, 4}
	}
	inv, err := inventory.NewFromMatrix(caps)
	if err != nil {
		t.Fatal(err)
	}
	tidx, err := inv.AttachTierIndex(tp)
	if err != nil {
		t.Fatal(err)
	}
	h := &OnlineHeuristic{Policy: ScanAllCenters}
	var sp, base affinity.SparseAlloc
	if _, _, err := h.PlaceSparse(tidx, model.Request{6, 3}, &base); err != nil {
		t.Fatal(err)
	}
	if err := inv.AllocateList(base.Entries); err != nil {
		t.Fatal(err)
	}
	delta := model.Request{3, 2}
	cycle := func() {
		if _, _, err := h.PlaceDeltaSparse(tidx, base.Entries, delta, &sp); err != nil {
			t.Fatal(err)
		}
		if err := inv.AllocateList(sp.Entries); err != nil {
			t.Fatal(err)
		}
		if err := inv.ReleaseList(sp.Entries); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // warm the pools
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("PlaceDeltaSparse steady state allocates %.2f allocs/op, want 0", avg)
	}
}
