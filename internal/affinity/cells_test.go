package affinity

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"affinitycluster/internal/model"
	"affinitycluster/internal/topology"
)

// interleavedPlant decodes a plant whose racks do not own contiguous node
// IDs (node i sits in rack i mod 3, racks 0–1 in cloud 0 and rack 2 in
// cloud 1), so CellsDistance's tally search takes its fallback path.
func interleavedPlant(t *testing.T) *topology.Topology {
	t.Helper()
	var nodes []topology.Node
	for i := 0; i < 12; i++ {
		r := i % 3
		nodes = append(nodes, topology.Node{ID: topology.NodeID(i), Rack: r, Cloud: r / 2})
	}
	data, err := json.Marshal(map[string]any{
		"distances": topology.DefaultDistances(), "nodes": nodes, "racks": 3, "clouds": 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var tp topology.Topology
	if err := json.Unmarshal(data, &tp); err != nil {
		t.Fatal(err)
	}
	return &tp
}

// TestCellsDistanceMatchesAllocation: DC(C) and the central node priced
// from canonical cells equal Allocation.Distance bit for bit, on
// irregular Builder plants and on a plant with interleaved racks, with
// one scratch reused across every call.
func TestCellsDistanceMatchesAllocation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var dc CellsDistance
	for trial := 0; trial < 400; trial++ {
		var tp *topology.Topology
		if trial%4 == 0 {
			tp = interleavedPlant(t)
		} else {
			tp = randomPlant(t, rng)
		}
		m := 1 + rng.Intn(3)
		a := randomAlloc(rng, tp.Nodes(), m)
		wantD, wantK := a.Distance(tp)
		gotD, gotK := dc.Distance(tp, a.Sparse())
		if gotD != wantD || gotK != wantK {
			t.Fatalf("trial %d: cells give (%v, %d), matrix (%v, %d) for %v", trial, gotD, gotK, wantD, wantK, a)
		}
	}
	tp := topology.PaperSimPlant()
	a := NewAllocation(tp.Nodes(), 2)
	a[3][0], a[3][1], a[14][1], a[27][0] = 2, 1, 3, 1
	cells := a.Sparse()
	if allocs := testing.AllocsPerRun(100, func() { dc.Distance(tp, cells) }); allocs != 0 {
		t.Errorf("steady-state CellsDistance allocates %v times per call", allocs)
	}
}

// TestAddCellMatchesDense is a random walk of single-cell edits applied
// both to a matrix and to its canonical cells: after every edit the
// cells must equal the matrix's Sparse form. Canonicalize must recover
// the same form from a shuffled list with split and zero cells.
func TestAddCellMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n, m = 9, 3
	a := NewAllocation(n, m)
	var cells []VMEntry
	for step := 0; step < 2000; step++ {
		i, j := topology.NodeID(rng.Intn(n)), model.VMTypeID(rng.Intn(m))
		delta := 1 + rng.Intn(3)
		if a[i][j] > 0 && rng.Intn(2) == 0 {
			delta = -(1 + rng.Intn(a[i][j]))
		}
		a[i][j] += delta
		cells = AddCell(cells, i, j, delta)
		if want := a.Sparse(); !reflect.DeepEqual(cells, want) && !(len(cells) == 0 && len(want) == 0) {
			t.Fatalf("step %d: cells %v, matrix cells %v", step, cells, want)
		}
		if step%50 == 0 {
			var messy []VMEntry
			for _, e := range a.Sparse() {
				half := e.Count / 2
				messy = append(messy, VMEntry{e.Node, e.Type, e.Count - half}, VMEntry{e.Node, e.Type, 0})
				if half > 0 {
					messy = append(messy, VMEntry{e.Node, e.Type, half})
				}
			}
			rng.Shuffle(len(messy), func(x, y int) { messy[x], messy[y] = messy[y], messy[x] })
			if got := Canonicalize(messy); !reflect.DeepEqual(got, cells) && !(len(got) == 0 && len(cells) == 0) {
				t.Fatalf("step %d: Canonicalize gave %v, want %v", step, got, cells)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("removing a VM from an absent cell did not panic")
		}
	}()
	AddCell([]VMEntry{{Node: 1, Type: 0, Count: 2}}, 0, 0, -1)
}
