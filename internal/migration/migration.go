// Package migration plans affinity-improving live migrations for running
// virtual clusters. The paper cites affinity-aware VM migration as the
// complementary mechanism to placement ("Affinity-aware virtual cluster
// VM migration technology is used to minimize the communication
// overhead", Section VI) and lists reacting to reconfiguration as future
// work; this package provides that mechanism on top of the same distance
// machinery.
//
// A Planner looks at the currently running clusters and the residual
// plant capacity and produces an ordered list of single-VM moves — each
// relocating one VM into free capacity (or trading same-type VMs between
// two clusters, which is capacity-neutral) so that the owning clusters'
// DC strictly decreases. Moves carry a traffic cost (the VM's memory
// image) so operators can bound disruption.
package migration

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/model"
	"affinitycluster/internal/obs"
	"affinitycluster/internal/topology"
)

// MoveKind distinguishes relocations from swaps.
type MoveKind int

const (
	// Relocate moves one VM into free capacity.
	Relocate MoveKind = iota
	// Swap trades same-type VMs between two clusters (capacity-neutral).
	Swap
)

func (k MoveKind) String() string {
	if k == Swap {
		return "swap"
	}
	return "relocate"
}

// Move is one planned migration step.
type Move struct {
	Kind    MoveKind
	Cluster int // index into the planner's cluster list
	// Peer is the second cluster of a Swap (unused for Relocate).
	Peer int
	Type model.VMTypeID
	From topology.NodeID
	To   topology.NodeID
	// Gain is the total DC reduction across the touched clusters.
	Gain float64
	// CostMB is the migration traffic (the moved VM images).
	CostMB float64
}

// Plan is an ordered, dependency-respecting list of moves: applying them
// front to back keeps every intermediate state feasible.
type Plan struct {
	Moves     []Move
	TotalGain float64
	TotalCost float64
}

// Config tunes the planner.
type Config struct {
	// MaxMoves caps the total number of moves in a plan (0 = 64).
	MaxMoves int
	// MinGain discards moves whose DC reduction is below this threshold;
	// 0 accepts any strict improvement.
	MinGain float64
	// Catalog supplies per-type memory sizes for the traffic cost; nil
	// uses model.DefaultCatalog() when the type count matches, else a
	// flat 1 GB per VM.
	Catalog model.Catalog
	// MaxCostMB bounds the plan's total migration traffic (0 = unbounded).
	MaxCostMB float64
}

// Planner computes migration plans. The zero value is usable.
type Planner struct {
	Config Config
	// Obs, when non-nil, receives planner metrics (plan counts, planned
	// moves, gain and traffic histograms). Nil stays a strict no-op.
	Obs *obs.Registry

	obsOnce sync.Once
	metrics plannerMetrics
}

// plannerMetrics are the resolved obs handles; the zero value no-ops.
type plannerMetrics struct {
	plans  *obs.Counter
	moves  *obs.Counter
	gain   *obs.Histogram
	costMB *obs.Histogram
}

func (p *Planner) obsHandles() *plannerMetrics {
	p.obsOnce.Do(func() {
		if p.Obs == nil {
			return
		}
		p.metrics = plannerMetrics{
			plans:  p.Obs.Counter("migration.plans"),
			moves:  p.Obs.Counter("migration.planned_moves"),
			gain:   p.Obs.Histogram("migration.plan_gain", 0, 100, 20),
			costMB: p.Obs.Histogram("migration.plan_cost_mb", 0, 65536, 16),
		}
	})
	return &p.metrics
}

// memoryMB returns the migration traffic of one VM of the given type.
func (p *Planner) memoryMB(types int, vt model.VMTypeID) float64 {
	cat := p.Config.Catalog
	if cat == nil {
		def := model.DefaultCatalog()
		if def.Types() == types {
			cat = def
		}
	}
	if cat != nil && int(vt) < cat.Types() {
		return cat[vt].MemoryGB * 1024
	}
	return 1024
}

// Plan computes an improving migration plan for the running clusters
// against the residual capacity matrix. Neither input is mutated; use
// Apply to realize a plan. It is PlanCells over each matrix's non-zero
// cells; a nil cluster stays absent from the plan.
func (p *Planner) Plan(t *topology.Topology, residual [][]int, clusters []affinity.Allocation) (*Plan, error) {
	if t == nil {
		return nil, errors.New("migration: nil topology")
	}
	cells := make([][]affinity.VMEntry, len(clusters))
	for i, c := range clusters {
		if c == nil {
			continue
		}
		if len(c) != t.Nodes() {
			return nil, fmt.Errorf("migration: cluster %d has %d rows, topology has %d nodes", i, len(c), t.Nodes())
		}
		cells[i] = c.Sparse()
	}
	return p.PlanCells(t, residual, cells)
}

// PlanCells is Plan over clusters given as sparse cells (any order; a
// cluster with no cells takes no part). The planner's per-call working
// copies — one n×m matrix per cluster, the free-capacity matrix, and one
// evaluator per cluster — are built from the cells, so the cost of a call
// does not depend on the caller's representation. Moves index clusters
// by their position in the slice. Neither input is mutated.
func (p *Planner) PlanCells(t *topology.Topology, residual [][]int, clusters [][]affinity.VMEntry) (*Plan, error) {
	if t == nil {
		return nil, errors.New("migration: nil topology")
	}
	if len(residual) != t.Nodes() {
		return nil, fmt.Errorf("migration: residual has %d rows, topology has %d nodes", len(residual), t.Nodes())
	}
	types := len(residual[0])
	work := make([]affinity.Allocation, len(clusters))
	evs := make([]*affinity.DistanceEvaluator, len(clusters))
	for i, c := range clusters {
		if len(c) == 0 {
			continue
		}
		work[i] = affinity.NewAllocation(t.Nodes(), types)
		evs[i] = affinity.NewDistanceEvaluator(t, nil)
		for _, e := range c {
			if int(e.Node) < 0 || int(e.Node) >= t.Nodes() || int(e.Type) < 0 || int(e.Type) >= types || e.Count < 0 {
				return nil, fmt.Errorf("migration: cluster %d has cell %+v outside the %dx%d plant", i, e, t.Nodes(), types)
			}
			if e.Count > 0 {
				work[i][e.Node][e.Type] += e.Count
				evs[i].AddVMs(e.Node, e.Count)
			}
		}
	}
	free := make([][]int, len(residual))
	for i := range residual {
		free[i] = append([]int(nil), residual[i]...)
	}

	maxMoves := p.Config.MaxMoves
	if maxMoves <= 0 {
		maxMoves = 64
	}
	plan := &Plan{}
	for len(plan.Moves) < maxMoves {
		mv, ok := p.bestMove(t, free, work, evs)
		if !ok || mv.Gain <= p.Config.MinGain {
			break
		}
		if p.Config.MaxCostMB > 0 && plan.TotalCost+mv.CostMB > p.Config.MaxCostMB {
			break
		}
		p.applyTo(work, free, mv)
		evs[mv.Cluster].Move(mv.From, mv.To)
		if mv.Kind == Swap {
			evs[mv.Peer].Move(mv.To, mv.From)
		}
		plan.Moves = append(plan.Moves, mv)
		plan.TotalGain += mv.Gain
		plan.TotalCost += mv.CostMB
	}
	om := p.obsHandles()
	om.plans.Inc()
	om.moves.Add(int64(len(plan.Moves)))
	if len(plan.Moves) > 0 {
		om.gain.Observe(plan.TotalGain)
		om.costMB.Observe(plan.TotalCost)
	}
	return plan, nil
}

// bestMove scans all relocations and swaps for the single largest gain.
// Candidates are priced through the clusters' maintained distance
// evaluators (MovePreview) instead of mutate-and-revert full recomputation;
// the scan order, strict-improvement threshold, and first-wins tie handling
// are unchanged, so the chosen move is identical.
func (p *Planner) bestMove(t *topology.Topology, free [][]int, clusters []affinity.Allocation, evs []*affinity.DistanceEvaluator) (Move, bool) {
	var best Move
	found := false
	consider := func(mv Move) {
		if !found || mv.Gain > best.Gain {
			best = mv
			found = true
		}
	}
	n := t.Nodes()
	// Relocations into free capacity.
	for ci, c := range clusters {
		if c == nil {
			continue
		}
		d0, _ := evs[ci].Distance()
		m := len(c[0])
		for from := 0; from < n; from++ {
			for j := 0; j < m; j++ {
				if c[from][j] == 0 {
					continue
				}
				for to := 0; to < n; to++ {
					if to == from || free[to][j] == 0 {
						continue
					}
					d1, _ := evs[ci].MovePreview(topology.NodeID(from), topology.NodeID(to))
					if gain := d0 - d1; gain > 1e-12 {
						consider(Move{
							Kind:    Relocate,
							Cluster: ci,
							Peer:    -1,
							Type:    model.VMTypeID(j),
							From:    topology.NodeID(from),
							To:      topology.NodeID(to),
							Gain:    gain,
							CostMB:  p.memoryMB(m, model.VMTypeID(j)),
						})
					}
				}
			}
		}
	}
	// Capacity-neutral swaps between cluster pairs (Theorem 2 exchanges).
	for ai := 0; ai < len(clusters); ai++ {
		a := clusters[ai]
		if a == nil {
			continue
		}
		for bi := ai + 1; bi < len(clusters); bi++ {
			b := clusters[bi]
			if b == nil {
				continue
			}
			da0, _ := evs[ai].Distance()
			db0, _ := evs[bi].Distance()
			m := len(a[0])
			for pN := 0; pN < n; pN++ {
				for qN := 0; qN < n; qN++ {
					if pN == qN {
						continue
					}
					for j := 0; j < m; j++ {
						if a[pN][j] == 0 || b[qN][j] == 0 {
							continue
						}
						da1, _ := evs[ai].MovePreview(topology.NodeID(pN), topology.NodeID(qN))
						db1, _ := evs[bi].MovePreview(topology.NodeID(qN), topology.NodeID(pN))
						if gain := (da0 + db0) - (da1 + db1); gain > 1e-12 {
							consider(Move{
								Kind:    Swap,
								Cluster: ai,
								Peer:    bi,
								Type:    model.VMTypeID(j),
								From:    topology.NodeID(pN),
								To:      topology.NodeID(qN),
								Gain:    gain,
								CostMB:  2 * p.memoryMB(m, model.VMTypeID(j)),
							})
						}
					}
				}
			}
		}
	}
	return best, found
}

// applyTo realizes one move on working state.
func (p *Planner) applyTo(clusters []affinity.Allocation, free [][]int, mv Move) {
	c := clusters[mv.Cluster]
	switch mv.Kind {
	case Relocate:
		c.Remove(mv.From, mv.Type)
		c.Add(mv.To, mv.Type)
		free[mv.From][mv.Type]++
		free[mv.To][mv.Type]--
	case Swap:
		peer := clusters[mv.Peer]
		c.Remove(mv.From, mv.Type)
		c.Add(mv.To, mv.Type)
		peer.Remove(mv.To, mv.Type)
		peer.Add(mv.From, mv.Type)
	}
}

// Apply realizes a plan in place on the caller's clusters and residual
// matrix. The plan must have been produced for exactly these inputs (or
// equivalent state); a move that no longer fits aborts with an error,
// leaving earlier moves applied — callers wanting atomicity should apply
// to clones.
func (p *Planner) Apply(plan *Plan, clusters []affinity.Allocation, residual [][]int) error {
	for i, mv := range plan.Moves {
		c := clusters[mv.Cluster]
		if c == nil || c[mv.From][mv.Type] == 0 {
			return fmt.Errorf("migration: move %d no longer applicable", i)
		}
		switch mv.Kind {
		case Relocate:
			if residual[mv.To][mv.Type] == 0 {
				return fmt.Errorf("migration: move %d target capacity gone", i)
			}
		case Swap:
			peer := clusters[mv.Peer]
			if peer == nil || peer[mv.To][mv.Type] == 0 {
				return fmt.Errorf("migration: move %d swap peer changed", i)
			}
		}
		p.applyTo(clusters, residual, mv)
	}
	return nil
}

// ErrNoCapacity is returned by PlanReplacement when some lost VM cannot
// be hosted anywhere in the residual capacity — the degraded cluster
// cannot be evacuated in place and must be re-placed wholesale.
var ErrNoCapacity = errors.New("migration: insufficient residual capacity for replacement")

// PlanReplacement is the evacuation half of fault recovery: a node
// failure destroyed `lost[j]` VMs of each type j belonging to the cluster
// whose surviving cells are `cluster` (cells on the dead nodes already
// dropped), and replacements must be placed into the residual capacity.
// Each replacement VM goes to the feasible node minimizing the cluster's
// resulting DC — the same greedy single-VM step the planner's Relocate
// moves use, so evacuated clusters land as tight as a migration pass
// would leave them. The scan is deterministic (type-major, ascending node
// IDs, strict improvement to switch), inputs are not mutated, and the
// returned cells — canonical, row-major — hold only the replacement VMs,
// so callers can AllocateList them and merge them into the cluster.
func PlanReplacement(t *topology.Topology, residual [][]int, cluster []affinity.VMEntry, lost model.Request) ([]affinity.VMEntry, error) {
	if t == nil {
		return nil, errors.New("migration: nil topology")
	}
	n := t.Nodes()
	if len(residual) != n {
		return nil, fmt.Errorf("migration: residual has %d rows, topology has %d nodes", len(residual), n)
	}
	ev := affinity.NewDistanceEvaluator(t, nil)
	for _, e := range cluster {
		if int(e.Node) < 0 || int(e.Node) >= n {
			return nil, fmt.Errorf("migration: cluster cell on node %d outside the %d-node plant", e.Node, n)
		}
		if e.Count > 0 {
			ev.AddVMs(e.Node, e.Count)
		}
	}
	free := make([][]int, n)
	for i := range residual {
		free[i] = append([]int(nil), residual[i]...)
	}
	var repl []affinity.VMEntry
	for j, count := range lost {
		for v := 0; v < count; v++ {
			best := -1
			bestD := math.Inf(1)
			for i := 0; i < n; i++ {
				if free[i][j] == 0 {
					continue
				}
				d, _ := ev.AddPreview(topology.NodeID(i))
				if d < bestD {
					bestD, best = d, i
				}
			}
			if best < 0 {
				return nil, fmt.Errorf("%w: no node can host a type-%d replacement", ErrNoCapacity, j)
			}
			ev.Add(topology.NodeID(best))
			free[best][j]--
			repl = affinity.AddCell(repl, topology.NodeID(best), model.VMTypeID(j), 1)
		}
	}
	return repl, nil
}

// TotalDistance sums DC over non-nil clusters — the quantity migrations
// shrink.
func TotalDistance(t *topology.Topology, clusters []affinity.Allocation) float64 {
	total := 0.0
	for _, c := range clusters {
		if c != nil {
			d, _ := c.Distance(t)
			total += d
		}
	}
	return total
}
