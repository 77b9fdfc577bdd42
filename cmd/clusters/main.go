// Command clusters runs MCODE on a network edge list and prints the
// clusters; with an ontology and annotations it also scores each cluster's
// edge enrichment (AEES), replicating the paper's analysis stage on user
// data.
//
// Usage:
//
//	clusters -in net.txt [-minscore 3] [-minsize 4] [-fluff]
//	         [-dag go.obo.txt -ann gene2term.tsv] [-dot out.dot]
//
// The DAG file uses the format of internal/ontology.WriteDAG; annotations
// use WriteAnnotations ("gene<TAB>term" lines).
//
// The run is one api.Request with an inline edge-list source and the
// filter algorithm "none" — the same typed request the `parsample serve` daemon
// serves — so the CLI and the service share one schema, one option
// vocabulary and one validation path.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"parsample"
	"parsample/api"
)

func main() {
	var (
		inPath   = flag.String("in", "", "input edge list (default stdin)")
		minScore = flag.Float64("minscore", 3.0, "minimum MCODE cluster score")
		minSize  = flag.Int("minsize", 4, "minimum cluster size")
		fluffOpt = flag.Bool("fluff", false, "enable MCODE fluff post-processing")
		dagPath  = flag.String("dag", "", "ontology DAG file (optional)")
		annPath  = flag.String("ann", "", "gene annotations file (requires -dag)")
		dotPath  = flag.String("dot", "", "write a DOT rendering with clusters highlighted")
	)
	flag.Parse()

	src, err := api.EdgeListFile(*inPath)
	if err != nil {
		fatalf("%v", err)
	}
	req := &api.Request{
		Network: src,
		Filter:  api.FilterSpec{Algorithm: api.AlgorithmNone},
		Cluster: api.ClusterSpec{MinScore: minScore, MinSize: minSize, Fluff: *fluffOpt},
	}
	if *dagPath != "" {
		if *annPath == "" {
			fatalf("-ann is required with -dag")
		}
		score, err := api.InlineOntologyFiles(*dagPath, *annPath)
		if err != nil {
			fatalf("%v", err)
		}
		req.Score = score
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	resp, err := parsample.New().Do(ctx, req)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("network: %d vertices, %d edges; %d clusters (score >= %.1f, size >= %d)\n",
		resp.Network.Vertices, resp.Network.Edges, len(resp.Clusters), *minScore, *minSize)
	for i, c := range resp.Clusters {
		fmt.Printf("cluster %-3d size %-4d edges %-5d density %.2f score %.2f",
			c.ID, len(c.Vertices), c.Edges, c.Density, c.Score)
		if resp.Scores != nil {
			fmt.Printf("  AEES %.2f (dominant term %d)", resp.Scores[i].AEES, resp.Scores[i].DominantTerm)
		}
		fmt.Println()
		fmt.Printf("  vertices: %v\n", c.Vertices)
	}

	if *dotPath != "" {
		// The DOT rendering needs the host graph itself; parse the same
		// inline source the request ran on.
		g, err := parsample.ReadNetwork(strings.NewReader(src.EdgeList))
		if err != nil {
			fatalf("%v", err)
		}
		groups := make([][]int32, len(resp.Clusters))
		for i, c := range resp.Clusters {
			groups[i] = c.Vertices
		}
		f, err := os.Create(*dotPath)
		if err != nil {
			fatalf("%v", err)
		}
		err = parsample.WriteDOT(f, g, parsample.DOTOptions{Name: "clusters", Highlight: groups})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatalf("write dot: %v", err)
		}
		fmt.Printf("wrote %s\n", *dotPath)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "clusters: "+format+"\n", args...)
	os.Exit(1)
}
