// Orderings: the paper's H0b study — how the vertex processing order
// (Natural, High Degree, Low Degree, RCM) perturbs the maximal chordal
// subgraph and, more importantly, how little it perturbs the biologically
// relevant clusters.
package main

import (
	"context"
	"fmt"
	"log"

	"parsample"

	"parsample/internal/analysis"
	"parsample/internal/datasets"
	"parsample/internal/graph"
)

func main() {
	ctx := context.Background()
	ds := datasets.YNG()
	fmt.Printf("network %s: %d vertices, %d edges, %d planted modules\n",
		ds.Name, ds.G.N(), ds.G.M(), len(ds.Modules))

	origClusters, err := parsample.ClustersContext(ctx, ds.G, parsample.ClusterParams{})
	if err != nil {
		log.Fatal(err)
	}
	origScored, err := parsample.ScoreClustersContext(ctx, ds.DAG, ds.Ann, ds.G, origClusters)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original network: %d clusters\n\n", len(origClusters))

	fmt.Printf("%-8s %10s %10s %12s %14s %16s\n",
		"ordering", "edges", "clusters", "AEES>=3", "module recall", "best node ovl")
	for _, o := range graph.AllOrderings {
		res, err := parsample.FilterContext(ctx, ds.G, parsample.FilterOptions{
			Algorithm: parsample.ChordalSeq,
			Ordering:  o,
			Seed:      ds.Seed,
		})
		if err != nil {
			log.Fatal(err)
		}
		fg := res.Subgraph
		clusters, err := parsample.ClustersContext(ctx, fg, parsample.ClusterParams{})
		if err != nil {
			log.Fatal(err)
		}
		scored, err := parsample.ScoreClustersContext(ctx, ds.DAG, ds.Ann, fg, clusters)
		if err != nil {
			log.Fatal(err)
		}

		relevant := 0
		for _, sc := range scored {
			if sc.Score.AEES >= 3 {
				relevant++
			}
		}
		recall := analysis.ModuleRecovery(ds.Modules, clusters, 0.5)
		ms, err := analysis.MatchClustersContext(ctx, ds.G, origScored, fg, scored)
		if err != nil {
			log.Fatal(err)
		}
		best := 0.0
		for _, m := range ms {
			if m.Overlap.NodeFrac > best {
				best = m.Overlap.NodeFrac
			}
		}
		fmt.Printf("%-8s %10d %10d %12d %13.0f%% %15.0f%%\n",
			o, fg.M(), len(clusters), relevant, 100*recall, 100*best)
	}
	fmt.Println("\nH0b: the chordal subgraph changes with the ordering, but the")
	fmt.Println("biologically relevant clusters are consistently identified.")
}
