package analysis

import (
	"sync"
	"testing"

	"parsample/internal/datasets"
	"parsample/internal/expr"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/ontology"
	"parsample/internal/sampling"
)

// mustScore runs ScoreClustersContext under the test's context and fails
// the test on an error.
func mustScore(tb testing.TB, d *ontology.DAG, a *ontology.Annotations, g *graph.Graph, clusters []mcode.Cluster) []ScoredCluster {
	tb.Helper()
	out, err := ScoreClustersContext(tb.Context(), d, a, g, clusters)
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// scoringInput is one ScoreClustersContext call: a filtered host graph, its MCODE
// clusters, and the ontology they are scored against.
type scoringInput struct {
	name     string
	dag      *ontology.DAG
	ann      *ontology.Annotations
	g        *graph.Graph
	clusters []mcode.Cluster
}

// filteredInput filters g with alg over its HD ordering and clusters the
// result with MCODE's defaults.
func filteredInput(tb testing.TB, name string, g *graph.Graph, alg sampling.Algorithm, p int, seed int64, dag *ontology.DAG, ann *ontology.Annotations) scoringInput {
	tb.Helper()
	ord := graph.Order(g, graph.HighDegree, seed)
	res, err := sampling.RunContext(tb.Context(), alg, g, sampling.Options{Order: ord, P: p, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	fg := res.Graph(g.N())
	clusters, err := mcode.FindClustersContext(tb.Context(), fg, mcode.DefaultParams())
	if err != nil {
		tb.Fatal(err)
	}
	if len(clusters) == 0 {
		tb.Fatalf("%s: no clusters", name)
	}
	return scoringInput{name, dag, ann, fg, clusters}
}

// yngInput is the YNG network filtered by HD chordal-seq: the dataset's DAG
// and annotations are the ones every request on YNG shares.
func yngInput(tb testing.TB) scoringInput {
	ds := datasets.YNG()
	return filteredInput(tb, "YNG/chordal-seq/HD", ds.G, sampling.ChordalSeq, 1, ds.Seed, ds.DAG, ds.Ann)
}

// synthInput is a 2048×64 synthesized request as the service resolves it
// (default modules and correlation cut-offs, the matching generated
// ontology) filtered by HD chordal-nocomm at P=4.
func synthInput(tb testing.TB) scoringInput {
	const seed = 1
	syn, err := expr.Synthesize(expr.SyntheticSpec{Genes: 2048, Samples: 64, Modules: 16, ModuleSize: 12, Noise: 0.1, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	dag := ontology.Generate(ontology.GenerateSpec{Depth: 10, Branch: 3, Seed: seed + 1})
	ann := ontology.AnnotateModules(dag, 2048, syn.Modules, 6, seed+2)
	g, err := expr.BuildNetworkContext(tb.Context(), syn.M, expr.DefaultNetworkOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return filteredInput(tb, "synth/2048x64/chordal-nocomm/HD", g, sampling.ChordalNoComm, 4, seed, dag, ann)
}

// TestScoreClustersSharedDAGConcurrent scores one dataset's clusters from
// several goroutines at once, each call with its own scorer over the one
// shared DAG and annotation table, and checks every result against a
// serial run.
func TestScoreClustersSharedDAGConcurrent(t *testing.T) {
	in := yngInput(t)
	want := mustScore(t, in.dag, in.ann, in.g, in.clusters)
	const workers, rounds = 4, 3
	var wg sync.WaitGroup
	results := make([][][]ScoredCluster, workers)
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				got, err := ScoreClustersContext(t.Context(), in.dag, in.ann, in.g, in.clusters)
				if err != nil {
					t.Error(err)
					return
				}
				results[w] = append(results[w], got)
			}
		}()
	}
	wg.Wait()
	for w, runs := range results {
		for r, got := range runs {
			if len(got) != len(want) {
				t.Fatalf("worker %d run %d: %d scored clusters, want %d", w, r, len(got), len(want))
			}
			for i := range want {
				if got[i].Score != want[i].Score || got[i].Cluster.ID != want[i].Cluster.ID {
					t.Fatalf("worker %d run %d cluster %d: %+v, serial %+v", w, r, i, got[i].Score, want[i].Score)
				}
			}
		}
	}
}

var scoredSink []ScoredCluster

// BenchmarkScoreClusters times one ScoreClustersContext call over the filtered
// clusters of a synthesized request and of a dataset cell.
func BenchmarkScoreClusters(b *testing.B) {
	for _, in := range []scoringInput{synthInput(b), yngInput(b)} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				scoredSink = mustScore(b, in.dag, in.ann, in.g, in.clusters)
			}
		})
	}
}
