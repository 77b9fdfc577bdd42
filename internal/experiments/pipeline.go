// Package experiments contains one driver per table/figure of the paper's
// evaluation (Figures 4–11 plus the random-walk cluster count reported in
// the text). Each driver takes a context, returns typed rows plus an error,
// and runs on the shared pipeline engine (internal/pipeline): artifacts
// shared between figures — filtered networks, MCODE clusters, AEES scores,
// match tables — are computed once, concurrent figure drivers deduplicate
// through the engine's singleflight store, and a cancelled context aborts
// the drivers mid-kernel. The cmd/experiments binary and the
// repository-level benchmarks render the rows.
package experiments

import (
	"context"

	"parsample/internal/analysis"
	"parsample/internal/datasets"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/pipeline"
	"parsample/internal/sampling"
)

// eng is the engine shared by every figure driver. One store across figures
// is the point: Figures 4–9 and the lost/found table all read the same
// (dataset, ordering, chordal-seq, P=1) chains, so a full `-fig all` sweep
// computes each chain exactly once no matter how drivers interleave.
var eng = pipeline.New(pipeline.Config{})

// Engine exposes the shared pipeline engine (cache statistics, warm-up).
func Engine() *pipeline.Engine { return eng }

// input adapts a dataset for the engine.
func input(ds *datasets.Dataset) pipeline.Input { return pipeline.FromDataset(ds) }

// seqVariant is the sequential chordal filter under ordering o — the
// variant Figures 4–9 study.
func seqVariant(o graph.Ordering) pipeline.Variant {
	return pipeline.Variant{Ordering: o, Algorithm: sampling.ChordalSeq, P: 1}
}

// seqVariants lists the original network plus the sequential chordal filter
// under every paper ordering — the warm set of the ordering figures.
func seqVariants() []pipeline.Variant {
	vs := []pipeline.Variant{pipeline.Original}
	for _, o := range graph.AllOrderings {
		vs = append(vs, seqVariant(o))
	}
	return vs
}

// originalClusters returns the scored clusters of the unfiltered network.
func originalClusters(ctx context.Context, ds *datasets.Dataset) ([]analysis.ScoredCluster, error) {
	return eng.Scored(ctx, input(ds), pipeline.Original)
}

// filteredClusters returns the scored clusters of a filtered network along
// with the filtered graph.
func filteredClusters(ctx context.Context, ds *datasets.Dataset, o graph.Ordering, alg sampling.Algorithm, p int) ([]analysis.ScoredCluster, *graph.Graph, error) {
	in := input(ds)
	v := pipeline.Variant{Ordering: o, Algorithm: alg, P: p}
	sc, err := eng.Scored(ctx, in, v)
	if err != nil {
		return nil, nil, err
	}
	g, err := eng.Graph(ctx, in, v)
	if err != nil {
		return nil, nil, err
	}
	return sc, g, nil
}

// matches returns the variant's cluster match table against the original
// network's clusters.
func matches(ctx context.Context, ds *datasets.Dataset, o graph.Ordering, alg sampling.Algorithm, p int) ([]analysis.Match, error) {
	return eng.Matches(ctx, input(ds), pipeline.Variant{Ordering: o, Algorithm: alg, P: p})
}

// ------------------------------------------------------- direct (reference)

// FilteredNet is one filtered network plus the sampling telemetry.
type FilteredNet struct {
	Dataset  *datasets.Dataset
	Ordering graph.Ordering
	Result   *sampling.Result
	G        *graph.Graph
}

// Filter applies alg to the dataset's network under the given ordering and
// processor count — the direct, uncached kernel path. The figure drivers go
// through the engine instead; this entry point remains as the independent
// reference the engine-vs-direct determinism test compares against.
func Filter(ds *datasets.Dataset, o graph.Ordering, alg sampling.Algorithm, p int) (*FilteredNet, error) {
	ord := graph.Order(ds.G, o, ds.Seed)
	res, err := sampling.Run(alg, ds.G, sampling.Options{Order: ord, P: p, Seed: ds.Seed})
	if err != nil {
		return nil, err
	}
	return &FilteredNet{
		Dataset:  ds,
		Ordering: o,
		Result:   res,
		G:        res.Subgraph,
	}, nil
}

// ScoredClusters runs MCODE on g and scores every cluster against the
// dataset's ontology (direct path, see Filter).
func ScoredClusters(ds *datasets.Dataset, g *graph.Graph) []analysis.ScoredCluster {
	clusters := mcode.FindClusters(g, mcode.DefaultParams())
	return analysis.ScoreClusters(ds.DAG, ds.Ann, g, clusters)
}
