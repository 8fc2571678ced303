// Command vcplace computes an affinity-aware placement for one request
// from a JSON problem description and prints the allocation, its distance,
// and its central node. With -exact it also reports the provable optimum.
//
// Usage:
//
//	vcplace -in problem.json [-exact] [-strategy online|firstfit|roundrobin|pack]
//
// Input format:
//
//	{
//	  "clouds": 1, "racksPerCloud": 3, "nodesPerRack": 10,
//	  "capacities": [[2,1,0], ...],       // nodes × types (L)
//	  "request": [2, 4, 1]
//	}
//
// An omitted "capacities" gives every node one instance of each type.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"affinitycluster/internal/affinity"
	"affinitycluster/internal/inventory"
	"affinitycluster/internal/model"
	"affinitycluster/internal/placement"
	"affinitycluster/internal/sdexact"
	"affinitycluster/internal/topology"
)

type problem struct {
	Clouds        int           `json:"clouds"`
	RacksPerCloud int           `json:"racksPerCloud"`
	NodesPerRack  int           `json:"nodesPerRack"`
	Capacities    [][]int       `json:"capacities"`
	Request       model.Request `json:"request"`
}

func main() {
	in := flag.String("in", "", "path to the JSON problem (default: stdin)")
	exact := flag.Bool("exact", false, "also solve the exact SD optimum")
	strategy := flag.String("strategy", "online", "placement strategy: online, firstfit, roundrobin, pack")
	flag.Parse()

	if err := run(*in, *exact, *strategy); err != nil {
		fmt.Fprintln(os.Stderr, "vcplace:", err)
		os.Exit(1)
	}
}

func run(in string, exact bool, strategy string) error {
	var data []byte
	var err error
	if in == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(in)
	}
	if err != nil {
		return err
	}
	var p problem
	if err := json.Unmarshal(data, &p); err != nil {
		return fmt.Errorf("parsing problem: %w", err)
	}
	if p.Clouds == 0 {
		p.Clouds = 1
	}
	topo, err := topology.Uniform(p.Clouds, p.RacksPerCloud, p.NodesPerRack, topology.DefaultDistances())
	if err != nil {
		return err
	}
	if p.Capacities == nil {
		p.Capacities = make([][]int, topo.Nodes())
		for i := range p.Capacities {
			p.Capacities[i] = make([]int, len(p.Request))
			for j := range p.Capacities[i] {
				p.Capacities[i][j] = 1
			}
		}
	}
	if len(p.Capacities) != topo.Nodes() {
		return fmt.Errorf("capacities has %d rows, plant has %d nodes", len(p.Capacities), topo.Nodes())
	}
	if err := validate(p); err != nil {
		return err
	}

	var placer placement.Placer
	switch strategy {
	case "online":
		placer = &placement.OnlineHeuristic{}
	case "firstfit":
		placer = placement.FirstFit{}
	case "roundrobin":
		placer = placement.RoundRobinStripe{}
	case "pack":
		placer = placement.PackBestFit{}
	default:
		return fmt.Errorf("unknown strategy %q", strategy)
	}

	alloc, err := placer.Place(topo, p.Capacities, p.Request)
	if err != nil {
		return err
	}
	printAllocation(topo, strategy, alloc)

	if exact {
		res, err := sdexact.SolveSD(topo, p.Capacities, p.Request)
		if err != nil {
			return err
		}
		fmt.Println()
		printAllocation(topo, "exact-sd", res.Alloc)
	}
	return nil
}

// validate rejects problems the placers would index out of range on or
// silently mis-place: ragged or negative capacity rows (checked by the
// inventory's own constructor), rows whose width differs from the
// request's type count, and negative request entries.
func validate(p problem) error {
	if _, err := inventory.NewFromMatrix(p.Capacities); err != nil {
		return err
	}
	if w := len(p.Capacities[0]); w != len(p.Request) {
		return fmt.Errorf("capacity rows have %d types, request has %d", w, len(p.Request))
	}
	for j, k := range p.Request {
		if k < 0 {
			return fmt.Errorf("request has negative count %d for type %d", k, j)
		}
	}
	return nil
}

func printAllocation(topo *topology.Topology, name string, alloc affinity.Allocation) {
	d, ctr := alloc.Distance(topo)
	fmt.Printf("%s: distance %.1f, central node %d\n", name, d, ctr)
	for _, node := range alloc.HostingNodes() {
		fmt.Printf("  node %2d (rack %d): %v\n", node, topo.RackOf(node), alloc[node])
	}
}
