// Command parsample filters a network edge list with one of the paper's
// sampling algorithms and writes the sampled edge list.
//
// Usage:
//
//	parsample -alg chordal-nocomm -order HD -p 8 [-seed 1] [-in net.txt] [-out filtered.txt] [-stats]
//
// With no -in/-out it reads stdin and writes stdout. -stats prints sampling
// telemetry (edges kept, border edges, duplicates, per-rank operations) to
// stderr.
//
// Subcommands:
//
//	parsample pipeline ...   one end-to-end run on the pipeline engine, with
//	                         per-stage timings (see `parsample pipeline -h`)
//	parsample stats ...      structural statistics of an edge list
//	parsample datagen ...    write the evaluation networks to disk
//	parsample serve ...      the HTTP daemon (see `parsample serve -h`)
//	parsample request ...    POST an api.Request JSON file to a daemon
//
// The pipeline subcommand builds one api.Request from its flags and runs it
// end to end through Pipeline.Do, the path the daemon serves — network
// (from an edge list, or built from a synthesized expression matrix) →
// ordering → filter → MCODE clusters → AEES scores — and prints per-stage
// timings:
//
//	parsample pipeline -in net.txt -alg chordal-nocomm -order HD -p 8
//	parsample pipeline -synth 2048x64 -modules 16 -modsize 12
//
// Synthesized runs plant co-expression modules, generate a matching
// ontology, and therefore include the scoring stage; edge-list runs stop at
// clustering unless -dag and -ann supply an ontology (the DAG format of
// internal/ontology.WriteDAG and "gene<TAB>term" annotation lines); a
// scored run prints each cluster's AEES and dominant term. -alg none
// clusters the whole network, and -minscore, -minsize and -fluff set the
// MCODE parameters. -dot writes a Graphviz rendering of the clustered graph
// with the clusters highlighted:
//
//	parsample pipeline -in net.txt -alg none -dag go.txt -ann gene2term.tsv -dot out.dot
//
// -synth is subject to the service API's synthesis caps
// (api.MaxSynthesisGenes, api.MaxSynthesisSamples and
// api.MaxSynthesisCells). Ctrl-C cancels the run mid-kernel.
//
// The stats subcommand prints size, density, degree histogram, components,
// triangles, chordality and the most central vertices of an edge list,
// by degree and closeness (-betweenness adds the O(nm) betweenness):
//
//	parsample stats -in net.txt [-top 10] [-betweenness]
//
// The datagen subcommand writes the synthetic evaluation networks (YNG,
// MID, UNT, CRE) as edge lists with their planted modules in a sidecar
// file:
//
//	parsample datagen -dir data [-only CRE]   # data/YNG.edges, data/YNG.modules, ...
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"parsample"
	"parsample/internal/server"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "pipeline":
			pipelineMain(os.Args[2:])
			return
		case "stats":
			statsMain(os.Args[2:])
			return
		case "datagen":
			datagenMain(os.Args[2:])
			return
		case "serve":
			if err := server.RunDaemon(os.Args[2:]); err != nil {
				fatalf("serve: %v", err)
			}
			return
		case "request":
			requestMain(os.Args[2:])
			return
		}
	}
	var (
		algName   = flag.String("alg", "chordal-nocomm", "algorithm: chordal-seq | chordal-comm | chordal-nocomm | randomwalk-seq | randomwalk-par | forestfire-seq | forestfire-par")
		orderName = flag.String("order", "NO", "vertex ordering: NO | HD | LD | RCM | RAND")
		p         = flag.Int("p", 1, "number of simulated processors")
		seed      = flag.Int64("seed", 1, "random seed")
		inPath    = flag.String("in", "", "input edge list (default stdin)")
		outPath   = flag.String("out", "", "output edge list (default stdout)")
		stats     = flag.Bool("stats", false, "print sampling statistics to stderr")
	)
	flag.Parse()

	alg, ok := parsample.ParseAlgorithm(*algName)
	if !ok {
		fatalf("unknown algorithm %q", *algName)
	}
	ord, ok := parsample.ParseOrdering(*orderName)
	if !ok {
		fatalf("unknown ordering %q", *orderName)
	}

	in := io.Reader(os.Stdin)
	if *inPath != "" {
		f, err := os.Open(*inPath)
		if err != nil {
			fatalf("open input: %v", err)
		}
		defer f.Close()
		in = f
	}
	g, err := parsample.ReadNetwork(in)
	if err != nil {
		fatalf("read network: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// The facade applies the documented seed contract: the ordering shuffle
	// and the samplers draw from decorrelated streams derived from -seed.
	res, err := parsample.FilterContext(ctx, g, parsample.FilterOptions{
		Algorithm: alg,
		Ordering:  ord,
		P:         *p,
		Seed:      *seed,
	})
	if err != nil {
		fatalf("sampling: %v", err)
	}

	if *outPath != "" {
		err = writeNetworkFile(*outPath, res.Subgraph)
	} else {
		err = parsample.WriteNetwork(os.Stdout, res.Subgraph)
	}
	if err != nil {
		fatalf("write network: %v", err)
	}

	if *stats {
		fmt.Fprintf(os.Stderr, "algorithm:     %s\n", res.Algorithm)
		fmt.Fprintf(os.Stderr, "input:         %d vertices, %d edges\n", g.N(), g.M())
		fmt.Fprintf(os.Stderr, "kept:          %d edges (%.1f%%)\n", res.Subgraph.M(),
			100*float64(res.Subgraph.M())/float64(max(1, g.M())))
		fmt.Fprintf(os.Stderr, "border edges:  %d (duplicated admissions: %d)\n",
			res.BorderEdges, res.DuplicateBorderEdges)
		fmt.Fprintf(os.Stderr, "ranks:         %d, bottleneck ops %d, messages %d, bytes %d\n",
			res.Stats.P, res.Stats.MaxRankOps(), res.Stats.Messages, res.Stats.Bytes)
	}
}

// writeNetworkFile writes g as an edge list to a new file at path.
func writeNetworkFile(path string, g *parsample.Graph) error {
	return writeFile(path, func(w io.Writer) error { return parsample.WriteNetwork(w, g) })
}

// writeFile creates a new file at path and fills it with write. The Close
// error is returned too: it is the last report of a failed write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "parsample: "+format+"\n", args...)
	os.Exit(1)
}
