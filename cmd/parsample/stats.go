package main

import (
	"context"
	"flag"
	"fmt"
	"sort"

	"parsample"
	"parsample/api"
	"parsample/internal/centrality"
	"parsample/internal/chordal"
	"parsample/internal/graph"
)

// statsMain runs `parsample stats`: structural statistics of an edge list
// (size, density, degree distribution, components, triangles, chordality)
// and the most central vertices by degree, closeness and, with
// -betweenness, betweenness — the measures the paper's background ties to
// gene essentiality. Input goes through the service API's network-source
// grammar (api.EdgeListFile → Pipeline.NetworkFromSource), so it accepts
// exactly what the daemon accepts.
func statsMain(args []string) {
	fs := flag.NewFlagSet("parsample stats", flag.ExitOnError)
	var (
		inPath  = fs.String("in", "", "input edge list (default stdin)")
		topK    = fs.Int("top", 10, "how many central vertices to list")
		between = fs.Bool("betweenness", false, "also compute betweenness (O(nm), slow on big nets)")
	)
	fs.Parse(args)

	src, err := api.EdgeListFile(*inPath)
	if err != nil {
		fatalf("stats: %v", err)
	}
	g, err := parsample.New().NetworkFromSource(context.Background(), src)
	if err != nil {
		fatalf("stats: %v", err)
	}

	fmt.Printf("vertices:    %d\n", g.N())
	fmt.Printf("edges:       %d\n", g.M())
	fmt.Printf("density:     %.6f\n", graph.Density(g))
	fmt.Printf("max degree:  %d\n", g.MaxDegree())
	fmt.Printf("avg degree:  %.2f\n", avgDegree(g))
	comps := graph.ConnectedComponents(g)
	fmt.Printf("components:  %d (largest %d vertices)\n", len(comps), largest(comps))
	fmt.Printf("triangles:   %d\n", graph.CountTriangles(g))
	fmt.Printf("chordal:     %v\n", chordal.IsChordal(g))
	printDegreeHistogram(g)

	printTop("degree", centrality.Degree(g), *topK)
	printTop("closeness", centrality.Closeness(g), *topK)
	if *between {
		printTop("betweenness", centrality.Betweenness(g), *topK)
	}
}

func avgDegree(g *graph.Graph) float64 {
	if g.N() == 0 {
		return 0
	}
	return 2 * float64(g.M()) / float64(g.N())
}

func largest(comps [][]int32) int {
	if len(comps) == 0 {
		return 0
	}
	return len(comps[0])
}

func printDegreeHistogram(g *graph.Graph) {
	hist := map[int]int{}
	for v := 0; v < g.N(); v++ {
		hist[g.Degree(int32(v))]++
	}
	degs := make([]int, 0, len(hist))
	for d := range hist {
		degs = append(degs, d)
	}
	sort.Ints(degs)
	fmt.Println("degree histogram (degree: count):")
	shown := 0
	for _, d := range degs {
		fmt.Printf("  %4d: %d\n", d, hist[d])
		shown++
		if shown >= 12 && len(degs) > 14 {
			fmt.Printf("  ... %d more degree values up to %d\n", len(degs)-shown, degs[len(degs)-1])
			break
		}
	}
}

func printTop(name string, scores []float64, k int) {
	fmt.Printf("top %d by %s:\n", k, name)
	for _, v := range centrality.TopK(scores, k) {
		fmt.Printf("  v%-7d %.4f\n", v, scores[v])
	}
}
