package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"

	"parsample"
	"parsample/api"
	"parsample/internal/pipeline"
)

// pipelineMain runs `parsample pipeline`: one end-to-end api.Request on
// the engine (Pipeline.Do) with per-stage timings.
func pipelineMain(args []string) {
	fs := flag.NewFlagSet("parsample pipeline", flag.ExitOnError)
	var (
		inPath    = fs.String("in", "", "input edge list (default stdin unless -synth)")
		synth     = fs.String("synth", "", fmt.Sprintf("synthesize a GENESxSAMPLES expression matrix (e.g. 2048x64) instead of reading a network; capped at %d genes, %d samples and %d cells", api.MaxSynthesisGenes, api.MaxSynthesisSamples, api.MaxSynthesisCells))
		modules   = fs.Int("modules", 16, "planted co-expression modules (-synth)")
		modSize   = fs.Int("modsize", 12, "genes per planted module (-synth)")
		noise     = fs.Float64("noise", 0.1, "within-module noise std-dev (-synth)")
		algName   = fs.String("alg", "chordal-nocomm", "algorithm: chordal-seq | chordal-comm | chordal-nocomm | randomwalk-seq | randomwalk-par | forestfire-seq | forestfire-par | none")
		orderName = fs.String("order", "NO", "vertex ordering: NO | HD | LD | RCM | RAND")
		p         = fs.Int("p", 1, "number of simulated processors")
		seed      = fs.Int64("seed", 1, "random seed")
		outPath   = fs.String("out", "", "write the filtered edge list here")
		top       = fs.Int("top", 5, "clusters to print")
		minScore  = fs.Float64("minscore", 3.0, "minimum MCODE cluster score")
		minSize   = fs.Int("minsize", 4, "minimum cluster size")
		fluff     = fs.Bool("fluff", false, "enable MCODE fluff post-processing")
		dagPath   = fs.String("dag", "", "ontology DAG file for scoring an edge-list input (requires -ann)")
		annPath   = fs.String("ann", "", "gene annotations file (requires -dag)")
		dotPath   = fs.String("dot", "", "write a DOT rendering of the clustered graph with clusters highlighted")
	)
	fs.Parse(args)

	filtered := *algName != api.AlgorithmNone
	req := &api.Request{
		Filter:  api.FilterSpec{Algorithm: *algName, Ordering: *orderName, P: *p, Seed: *seed},
		Cluster: api.ClusterSpec{MinScore: minScore, MinSize: minSize, Fluff: *fluff},
		Output:  api.OutputSpec{Edges: filtered && (*outPath != "" || *dotPath != "")},
	}
	if *outPath != "" && !filtered {
		fatalf("-out needs a filter algorithm (-alg none keeps the whole network)")
	}
	if (*dagPath == "") != (*annPath == "") {
		fatalf("-dag and -ann go together")
	}
	if *synth != "" {
		var genes, samples int
		if _, err := fmt.Sscanf(*synth, "%dx%d", &genes, &samples); err != nil {
			fatalf("bad -synth %q (want GENESxSAMPLES, e.g. 2048x64)", *synth)
		}
		// Synthesized sources carry a matching ontology over the planted
		// modules, so the scoring stage has ground truth to work against.
		req.Network.Synthesis = &api.SynthesisSpec{
			Genes: genes, Samples: samples,
			Modules: modules, ModuleSize: modSize, Noise: noise, Seed: *seed,
		}
	} else {
		src, err := api.EdgeListFile(*inPath)
		if err != nil {
			fatalf("read network: %v", err)
		}
		req.Network = src
	}
	if *dagPath != "" {
		score, err := api.InlineOntologyFiles(*dagPath, *annPath)
		if err != nil {
			fatalf("read ontology: %v", err)
		}
		req.Score = score
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// Do requests its stages one after another on this goroutine, so the
	// observer appends without a lock.
	var timings []pipeline.TraceEntry
	ctx = pipeline.WithObserver(ctx, func(e pipeline.TraceEntry) { timings = append(timings, e) })
	pl := parsample.New()
	resp, err := pl.Do(ctx, req)
	if err != nil {
		fatalf("pipeline: %v", err)
	}

	fmt.Printf("network:   %d vertices, %d edges\n", resp.Network.Vertices, resp.Network.Edges)
	if f := resp.Filtered; f != nil {
		fmt.Printf("filtered:  %d edges (%.1f%%) via %s/%s P=%d\n",
			f.Edges, 100*float64(f.Edges)/float64(max(1, resp.Network.Edges)),
			*algName, *orderName, *p)
	} else {
		fmt.Printf("filtered:  none (clustering the whole network)\n")
	}
	fmt.Printf("clusters:  %d\n", len(resp.Clusters))
	// Scores[i] scores Clusters[i]; a scored run lists the best AEES first.
	scored := resp.Scores != nil
	order := make([]int, len(resp.Clusters))
	for i := range order {
		order[i] = i
	}
	if scored {
		sort.SliceStable(order, func(a, b int) bool { return resp.Scores[order[a]].AEES > resp.Scores[order[b]].AEES })
	}
	for _, i := range order[:max(0, min(*top, len(order)))] {
		c := resp.Clusters[i]
		fmt.Printf("  cluster %2d: %3d vertices, %4d edges, density %.2f, MCODE %.2f",
			c.ID, len(c.Vertices), c.Edges, c.Density, c.Score)
		if scored {
			fmt.Printf(", AEES %.2f (dominant term %d)", resp.Scores[i].AEES, resp.Scores[i].DominantTerm)
		}
		fmt.Printf("\n    vertices: %v\n", c.Vertices)
	}

	fmt.Println("stage timings:")
	for _, e := range timings {
		fmt.Printf("  %-8s %-28s %-9s %10.3fms\n",
			e.Key.Stage, e.Key.Variant, e.Source, float64(e.Duration.Microseconds())/1000)
	}

	if *outPath == "" && *dotPath == "" {
		return
	}
	// The graph the clusters were found on: the filtered edge list, or the
	// whole network under -alg none (resolved again from the pipeline's
	// cache).
	var g *parsample.Graph
	if filtered {
		b := parsample.NewBuilder(resp.Network.Vertices)
		for _, e := range resp.Filtered.EdgeList {
			b.AddEdge(e[0], e[1])
		}
		g = b.Build()
	} else if g, err = pl.NetworkFromSource(ctx, req.Network); err != nil {
		fatalf("pipeline: %v", err)
	}
	if *outPath != "" {
		if err := writeNetworkFile(*outPath, g); err != nil {
			fatalf("write network: %v", err)
		}
	}
	if *dotPath != "" {
		groups := make([][]int32, len(resp.Clusters))
		for i, c := range resp.Clusters {
			groups[i] = c.Vertices
		}
		err := writeFile(*dotPath, func(w io.Writer) error {
			return parsample.WriteDOT(w, g, parsample.DOTOptions{Name: "clusters", Highlight: groups})
		})
		if err != nil {
			fatalf("write dot: %v", err)
		}
		fmt.Printf("wrote %s\n", *dotPath)
	}
}
