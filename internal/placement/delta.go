// Delta placement — growing and shrinking a live virtual cluster.
//
// The paper places a cluster once and holds it; the elastic job-driven
// extension (cloudsim's mid-job resize) needs two more primitives. Grow:
// extend an existing cluster C by a per-type delta, keeping the new VMs
// near C's current central node — Algorithm 1's greedy fill, started at
// that center with C's rack/cloud profile already on the tallies, so the
// merged DC(C′) is priced exactly and the fill order is the one a fresh
// build around that center would use. Shrink: give back a per-type delta
// by repeatedly removing the VM whose departure minimizes the resulting
// DC(C), probed through the evaluator's RemovePreview.
//
// The grow path reuses the pooled scanScratch of the tier-aggregated
// scan, so it stays allocation-free in steady state.
package placement

import (
	"errors"
	"fmt"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// PlaceDeltaSparse extends an existing cluster by delta against the free
// capacity a tier index tracks, filling greedily around the cluster's
// current central node. cur holds the existing cluster's non-zero cells
// (it must describe VMs already committed against the inventory the
// index aliases, so they are absent from L), dst receives the delta's
// entries in take order, and the returned DC/center price the merged
// cluster. The index is read, never written: committing the delta is the
// caller's step, exactly as with PlaceSparse. An empty cur degenerates to
// a full placement (center chosen by the scan), bit-identical to Place.
// Steady-state calls are allocation-free once dst and the pooled scratch
// have grown to their working sizes. cur is only read.
func (h *OnlineHeuristic) PlaceDeltaSparse(idx *affinity.TierIndex, cur []affinity.VMEntry, delta model.Request, dst *affinity.SparseAlloc) (float64, topology.NodeID, error) {
	if h.Policy != ScanAllCenters {
		return 0, -1, fmt.Errorf("placement: PlaceDeltaSparse requires ScanAllCenters, placer uses %q", h.Name())
	}
	om := h.obsHandles()
	om.calls.Inc()
	dc, center, fast, err := h.placeDeltaCore(idx, cur, delta, dst)
	if err != nil {
		if errors.Is(err, ErrInsufficient) {
			om.infeasible.Inc()
		}
		return 0, -1, err
	}
	if fast {
		om.fastPath.Inc()
		om.dc.Observe(0)
	} else {
		om.dc.Observe(dc)
	}
	return dc, center, nil
}

// placeDeltaCore validates the inputs, seeds the scan tallies with the
// existing cluster, scores them for its current center, and replays the
// greedy fill of delta around that center on top of the seeded profile.
// The final score therefore prices the merged cluster exactly as
// affinity.DistanceOf would. fast reports the empty-cluster fall-through
// to the full placement's fast path. No metrics, mirroring
// placeSparseCore; the allocation-free tally work lives in the
// annotated seedEntries/fillFrom/score helpers.
func (h *OnlineHeuristic) placeDeltaCore(idx *affinity.TierIndex, cur []affinity.VMEntry, delta model.Request, dst *affinity.SparseAlloc) (float64, topology.NodeID, bool, error) {
	t := idx.Topology()
	m := idx.Types()
	if len(delta) != m {
		return 0, -1, false, fmt.Errorf("placement: delta has %d types, index has %d", len(delta), m)
	}
	curTotal := 0
	for _, e := range cur {
		if int(e.Node) < 0 || int(e.Node) >= t.Nodes() || int(e.Type) < 0 || int(e.Type) >= m {
			return 0, -1, false, fmt.Errorf("placement: cluster entry (%d, %d) outside %dx%d plant", e.Node, e.Type, t.Nodes(), m)
		}
		if e.Count < 0 {
			return 0, -1, false, fmt.Errorf("placement: cluster entry (%d, %d) has negative count %d", e.Node, e.Type, e.Count)
		}
		curTotal += e.Count
	}
	if curTotal == 0 {
		// Growing nothing is placing: let the scan pick the center.
		return h.placeSparseCore(idx, delta, dst)
	}
	if err := admitAvail(idx.Avail(), delta); err != nil {
		return 0, -1, false, err
	}
	dst.Reset(t.Nodes(), m)
	T := 0
	for _, v := range delta {
		T += v
	}
	d := t.Distances()
	s := h.getScan(t, m)
	defer h.putScan(s)
	s.resetTallies()
	s.seedEntries(cur)
	dc0, center := s.score(t, d, s.total)
	if T == 0 {
		return dc0, center, false, nil
	}
	s.resid = append(s.resid[:0], delta...)
	if !s.fillFrom(idx, center, dst, false) {
		return 0, -1, false, fmt.Errorf("placement: internal error — no delta built for feasible grow %v", delta)
	}
	dc, k := s.score(t, d, s.total)
	return dc, k, false, nil
}

// seedEntries folds an existing cluster's cells into the tallies so a
// subsequent fill extends its profile. The caller has validated the
// entries (in range, non-negative). Entries may repeat cells; each
// distinct node is credited once with its summed load, keeping the
// per-rack max-load tie-breaks order-independent.
//
//lint:hotpath
func (s *scanScratch) seedEntries(cur []affinity.VMEntry) {
	loads := s.load()
	s.seedUniq = s.seedUniq[:0]
	for _, e := range cur {
		if e.Count == 0 {
			continue
		}
		if loads[e.Node] == 0 {
			s.seedUniq = append(s.seedUniq, e.Node)
		}
		loads[e.Node] += e.Count
	}
	for _, i := range s.seedUniq {
		w := loads[i]
		loads[i] = 0 // credit re-accumulates it
		s.credit(i, w)
	}
}

// ReleaseSubsetSparse shrinks a cluster, given as its sparse cells cur,
// by the per-type delta, choosing as victims the VMs whose removal keeps
// DC(C) lowest: one VM at a time, the hosting node with the best
// RemovePreview (ties toward the lowest node ID, then the lowest type ID
// still owed). The victims come back as aggregated sparse entries — a
// fresh slice the caller may keep or hand to Inventory.ReleaseList; it
// aliases neither cur (which is only read) nor any internal state. The
// call fails if the cluster holds fewer VMs of some type than delta asks
// back.
func ReleaseSubsetSparse(t *topology.Topology, cur []affinity.VMEntry, delta model.Request) ([]affinity.VMEntry, error) {
	K := 0
	for j, v := range delta {
		if v < 0 {
			return nil, fmt.Errorf("placement: negative shrink delta %d for type %d", v, j)
		}
		K += v
	}
	if K == 0 {
		return nil, nil
	}
	// Aggregate the cluster's cells (duplicates summed) into a private
	// working copy and check per-type feasibility.
	cells := make([]affinity.VMEntry, 0, len(cur))
	have := make([]int, len(delta))
	for _, e := range cur {
		if e.Count <= 0 {
			continue
		}
		if int(e.Node) < 0 || int(e.Node) >= t.Nodes() {
			return nil, fmt.Errorf("placement: cluster entry node %d outside %d-node plant", e.Node, t.Nodes())
		}
		if int(e.Type) < len(have) {
			have[e.Type] += e.Count
		}
		merged := false
		for i := range cells {
			if cells[i].Node == e.Node && cells[i].Type == e.Type {
				cells[i].Count += e.Count
				merged = true
				break
			}
		}
		if !merged {
			cells = append(cells, affinity.VMEntry{Node: e.Node, Type: e.Type, Count: e.Count})
		}
	}
	for j, v := range delta {
		if v > have[j] {
			return nil, fmt.Errorf("placement: shrink wants %d VMs of type %d back, cluster holds %d", v, j, have[j])
		}
	}
	ev := affinity.NewDistanceEvaluator(t, nil)
	for _, c := range cells {
		ev.AddVMs(c.Node, c.Count)
	}
	need := append([]int(nil), delta...)
	removable := func(i topology.NodeID) bool {
		for _, c := range cells {
			if c.Node == i && c.Count > 0 && int(c.Type) < len(need) && need[c.Type] > 0 {
				return true
			}
		}
		return false
	}
	victims := make([]affinity.VMEntry, 0, len(need))
	for k := 0; k < K; k++ {
		bestNode := topology.NodeID(-1)
		bestDC := 0.0
		for _, i := range ev.HostingNodes() {
			if !removable(i) {
				continue
			}
			dc, _ := ev.RemovePreview(i)
			if bestNode < 0 || dc < bestDC {
				bestNode, bestDC = i, dc
			}
		}
		if bestNode < 0 {
			return nil, fmt.Errorf("placement: internal error — no removable VM for shrink %v with %d owed", delta, K-k)
		}
		// Lowest owed type on the victim node.
		bestType := model.VMTypeID(-1)
		for _, c := range cells {
			if c.Node == bestNode && c.Count > 0 && int(c.Type) < len(need) && need[c.Type] > 0 {
				if bestType < 0 || c.Type < bestType {
					bestType = c.Type
				}
			}
		}
		for i := range cells {
			if cells[i].Node == bestNode && cells[i].Type == bestType {
				cells[i].Count--
				break
			}
		}
		need[bestType]--
		ev.Remove(bestNode)
		merged := false
		for i := range victims {
			if victims[i].Node == bestNode && victims[i].Type == bestType {
				victims[i].Count++
				merged = true
				break
			}
		}
		if !merged {
			victims = append(victims, affinity.VMEntry{Node: bestNode, Type: bestType, Count: 1})
		}
	}
	return victims, nil
}
