// Quickstart: build a small noisy network with planted modules, filter it
// with the maximal chordal subgraph sampler, and compare the clusters found
// before and after filtering.
package main

import (
	"context"
	"fmt"
	"log"

	"parsample"

	"parsample/internal/graph"
)

func main() {
	ctx := context.Background()
	// A small synthetic correlation network: 500 genes, sparse noisy
	// background, five planted co-expression modules.
	pr := graph.PlantedModules(500, 400, graph.ModuleSpec{
		Count: 5, MinSize: 6, MaxSize: 9, Density: 0.75, NoiseDeg: 0.5, Window: 3,
	}, 42)
	g := pr.G
	fmt.Printf("network: %d vertices, %d edges, %d planted modules\n",
		g.N(), g.M(), len(pr.Modules))

	// Clusters in the raw network (zero ClusterParams: the paper's MCODE
	// defaults).
	before, err := parsample.ClustersContext(ctx, g, parsample.ClusterParams{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clusters before filtering: %d\n", len(before))

	// Chordal filter (communication-free parallel variant on 4 simulated
	// processors, high-degree ordering).
	res, err := parsample.FilterContext(ctx, g, parsample.FilterOptions{
		Algorithm: parsample.ChordalNoComm,
		Ordering:  parsample.HighDegree,
		P:         4,
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	filtered := res.Subgraph
	fmt.Printf("chordal filter kept %d of %d edges (%.0f%%), %d border edges\n",
		filtered.M(), g.M(), 100*float64(filtered.M())/float64(g.M()), res.BorderEdges)

	// Clusters in the filtered network.
	after, err := parsample.ClustersContext(ctx, filtered, parsample.ClusterParams{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clusters after filtering: %d\n", len(after))
	for _, c := range after {
		fmt.Printf("  cluster %d: %d vertices, density %.2f, score %.2f\n",
			c.ID, len(c.Vertices), c.Density, c.Score)
	}

	// Sanity: the filtered graph is chordal when run sequentially.
	seq := parsample.MaximalChordalSubgraph(g, parsample.HighDegree, 1)
	fmt.Printf("sequential subgraph chordal: %v\n", parsample.IsChordal(seq))
}
