// Sparse allocation results. A dense Allocation is n×m regardless of how
// many nodes actually host VMs, which makes every placement at a
// 1M-node plant a multi-megabyte copy. The churn-steady-state path
// (place, commit, release) instead carries only the non-zero cells.
package affinity

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// VMEntry is one non-zero allocation cell: Count VMs of type Type on
// node Node.
type VMEntry struct {
	Node  topology.NodeID
	Type  model.VMTypeID
	Count int
}

// SparseAlloc is the sparse form of the paper's allocation matrix C for
// one virtual cluster. Entries hold the non-zero cells; the order is
// deterministic for a given placement but otherwise unspecified. A
// SparseAlloc is reusable: Reset and refill it instead of reallocating,
// so steady-state placement stays allocation-free once the Entries
// backing array has grown to its working size.
type SparseAlloc struct {
	NumNodes int
	NumTypes int
	Entries  []VMEntry
}

// Reset clears the entries (retaining capacity) and records the shape.
//
//lint:hotpath
func (s *SparseAlloc) Reset(nodes, types int) {
	s.NumNodes = nodes
	s.NumTypes = types
	s.Entries = s.Entries[:0]
}

// Add appends one non-zero cell.
//
//lint:hotpath
func (s *SparseAlloc) Add(node topology.NodeID, vt model.VMTypeID, count int) {
	s.Entries = append(s.Entries, VMEntry{Node: node, Type: vt, Count: count})
}

// TotalVMs sums the entry counts.
func (s *SparseAlloc) TotalVMs() int {
	n := 0
	for _, e := range s.Entries {
		n += e.Count
	}
	return n
}

// ToDense materializes the equivalent dense Allocation.
func (s *SparseAlloc) ToDense() Allocation {
	a := NewAllocation(s.NumNodes, s.NumTypes)
	for _, e := range s.Entries {
		a[e.Node][e.Type] += e.Count
	}
	return a
}

// Validate checks shape bounds and entry positivity.
func (s *SparseAlloc) Validate() error {
	for _, e := range s.Entries {
		if int(e.Node) < 0 || int(e.Node) >= s.NumNodes {
			return fmt.Errorf("affinity: sparse entry node %d outside [0,%d)", e.Node, s.NumNodes)
		}
		if int(e.Type) < 0 || int(e.Type) >= s.NumTypes {
			return fmt.Errorf("affinity: sparse entry type %d outside [0,%d)", e.Type, s.NumTypes)
		}
		if e.Count <= 0 {
			return fmt.Errorf("affinity: sparse entry count %d at node %d type %d must be positive", e.Count, e.Node, e.Type)
		}
	}
	return nil
}

// Canonical cell lists. A running cluster keeps its matrix C as a
// []VMEntry in canonical form: row-major (node, then type) order with no
// duplicate and no zero cell — exactly what Allocation.Sparse returns.
// The helpers below build and edit that form in O(cells) without ever
// materializing the n×m matrix.

// compareCells orders cells row-major: by node, then by type.
func compareCells(a, b VMEntry) int {
	if c := cmp.Compare(a.Node, b.Node); c != 0 {
		return c
	}
	return cmp.Compare(a.Type, b.Type)
}

// Canonicalize sorts cells row-major in place, merges repeated cells, and
// drops cells whose count is zero, returning the shortened slice (which
// shares cells' backing array).
func Canonicalize(cells []VMEntry) []VMEntry {
	slices.SortFunc(cells, compareCells)
	out := cells[:0]
	for _, e := range cells {
		if n := len(out); n > 0 && compareCells(out[n-1], e) == 0 {
			out[n-1].Count += e.Count
			if out[n-1].Count == 0 {
				out = out[:n-1]
			}
			continue
		}
		if e.Count != 0 {
			out = append(out, e)
		}
	}
	return out
}

// AddCell adds delta VMs of type vt on node to a canonical cell list and
// returns the list, still canonical: the cell is inserted at its row-major
// position, updated in place, or removed when its count reaches zero.
// Removing VMs the list does not hold panics — as Allocation.Remove does,
// it always indicates a logic error in the caller's bookkeeping.
func AddCell(cells []VMEntry, node topology.NodeID, vt model.VMTypeID, delta int) []VMEntry {
	key := VMEntry{Node: node, Type: vt, Count: delta}
	pos, found := slices.BinarySearchFunc(cells, key, compareCells)
	if !found {
		if delta < 0 {
			panic(fmt.Sprintf("affinity: AddCell(%d, %d, %d) on an empty cell", node, vt, delta))
		}
		if delta == 0 {
			return cells
		}
		return slices.Insert(cells, pos, key)
	}
	switch c := cells[pos].Count + delta; {
	case c < 0:
		panic(fmt.Sprintf("affinity: AddCell(%d, %d, %d) on a cell holding %d", node, vt, delta, cells[pos].Count))
	case c == 0:
		return slices.Delete(cells, pos, pos+1)
	default:
		cells[pos].Count = c
		return cells
	}
}

// CellsDistance computes DC(C) of Definition 1 with its central node for
// a cluster given as canonical cells, bit-identical to Allocation.Distance
// on the equivalent matrix (same TierSum aggregates, same lowest-ID
// tie-break). Its per-rack and per-cloud tallies live in reusable scratch
// sized by the racks and clouds the cluster touches, never by the plant,
// so a steady-state call allocates nothing and costs O(cells) when each
// rack's nodes carry adjacent IDs (every Builder-made plant), plus a scan
// of the touched racks otherwise. The zero value is ready to use; not safe
// for concurrent use.
type CellsDistance struct {
	racks  []rackTally
	clouds []cloudTally
}

type rackTally struct {
	rack   int
	ci     int             // index of the rack's cloud in clouds
	w      int             // VMs in the rack
	bestW  int             // VMs on the rack's most loaded node
	bestID topology.NodeID // that node, lowest ID on ties
}

type cloudTally struct{ cloud, w int }

// Distance returns DC(C) and the central node for cells, which must be
// sorted by node (canonical form; cells of one node adjacent). An empty
// list has distance 0 and central node -1.
//
//lint:hotpath
func (s *CellsDistance) Distance(t *topology.Topology, cells []VMEntry) (float64, topology.NodeID) {
	s.racks, s.clouds = s.racks[:0], s.clouds[:0]
	total := 0
	for k := 0; k < len(cells); {
		h := cells[k].Node
		wh := 0
		for ; k < len(cells) && cells[k].Node == h; k++ {
			wh += cells[k].Count
		}
		if wh == 0 {
			continue
		}
		s.addHost(t, h, wh)
		total += wh
	}
	if total == 0 {
		return 0, -1
	}
	d := t.Distances()
	best := math.Inf(1)
	bestK := topology.NodeID(-1)
	for _, r := range s.racks {
		v := TierSum(d, r.bestW, r.w, s.clouds[r.ci].w, total)
		if v < best || (v == best && r.bestID < bestK) {
			best, bestK = v, r.bestID
		}
	}
	return best, bestK
}

// addHost folds one hosting node's VM total into the rack and cloud
// tallies, searching from the most recently touched tally (the one an
// adjacent node of a Builder-made plant belongs to).
//
//lint:hotpath
func (s *CellsDistance) addHost(t *topology.Topology, h topology.NodeID, wh int) {
	r := t.RackOf(h)
	ri := len(s.racks) - 1
	for ri >= 0 && s.racks[ri].rack != r {
		ri--
	}
	if ri < 0 {
		cl := t.CloudOf(h)
		ci := len(s.clouds) - 1
		for ci >= 0 && s.clouds[ci].cloud != cl {
			ci--
		}
		if ci < 0 {
			s.clouds = append(s.clouds, cloudTally{cloud: cl})
			ci = len(s.clouds) - 1
		}
		s.racks = append(s.racks, rackTally{rack: r, ci: ci, bestW: wh, bestID: h})
		ri = len(s.racks) - 1
	} else if rt := &s.racks[ri]; wh > rt.bestW || (wh == rt.bestW && h < rt.bestID) {
		rt.bestW, rt.bestID = wh, h
	}
	s.racks[ri].w += wh
	s.clouds[s.racks[ri].ci].w += wh
}
