package parsample

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"parsample/internal/expr"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/ontology"
)

func TestFacadeFilterAndClusters(t *testing.T) {
	pr := graph.PlantedModules(400, 300, graph.ModuleSpec{
		Count: 5, MinSize: 6, MaxSize: 8, Density: 0.8, NoiseDeg: 0.5, Window: 3,
	}, 11)
	res, err := Filter(pr.G, FilterOptions{Algorithm: ChordalNoComm, Ordering: HighDegree, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	fg := res.Graph(pr.G.N())
	if fg.M() == 0 || fg.M() > pr.G.M() {
		t.Fatalf("filtered edges = %d of %d", fg.M(), pr.G.M())
	}
	clusters := Clusters(fg)
	if len(clusters) == 0 {
		t.Fatal("no clusters after filtering planted modules")
	}
}

func TestFacadeSeedStreamsIndependent(t *testing.T) {
	g := graph.Gnm(200, 800, 5)
	run := func(seed int64) *Result {
		res, err := Filter(g, FilterOptions{Algorithm: RandomWalkPar, Ordering: RandomOrder, P: 4, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// Determinism contract: same options, same result.
	a, b := run(42), run(42)
	if !slices.Equal(a.Subgraph.Edges(), b.Subgraph.Edges()) {
		t.Fatal("same seed produced different samples")
	}
	// Independent streams: the shuffle and the walk must not collapse onto
	// the same underlying sequence. With the raw seed feeding both, the
	// derived sub-seeds would be equal; SplitMix64 over distinct purpose
	// tags keeps them apart for every seed.
	for _, seed := range []int64{0, 1, -7, 1 << 40} {
		if splitSeed(seed, seedPurposeOrder) == splitSeed(seed, seedPurposeSampler) {
			t.Fatalf("seed %d: order and sampler streams coincide", seed)
		}
	}
	// And a different seed changes the outcome.
	c := run(43)
	if slices.Equal(c.Subgraph.Edges(), a.Subgraph.Edges()) {
		t.Fatal("different seeds gave identical samples (suspicious)")
	}
}

func TestFacadeChordalHelpers(t *testing.T) {
	g := graph.Cycle(9)
	sub := MaximalChordalSubgraph(g, Natural, 0)
	if !IsChordal(sub) {
		t.Fatal("maximal chordal subgraph is not chordal")
	}
	if IsChordal(g) {
		t.Fatal("C9 misclassified as chordal")
	}
	if sub.M() != 8 {
		t.Fatalf("C9 chordal subgraph edges = %d, want 8", sub.M())
	}
}

func TestFacadeNetworkIO(t *testing.T) {
	g := graph.Gnm(30, 60, 1)
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadNetwork(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatal("network IO round trip failed")
	}
}

func TestFacadeEndToEndPipeline(t *testing.T) {
	// Microarray → correlation network → filter → clusters → AEES.
	syn, err := expr.Synthesize(expr.SyntheticSpec{
		Genes: 150, Samples: 30, Modules: 3, ModuleSize: 8, Noise: 0.1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := BuildCorrelationNetwork(syn.M, expr.DefaultNetworkOptions())
	res, err := Filter(net, FilterOptions{Algorithm: ChordalSeq})
	if err != nil {
		t.Fatal(err)
	}
	fg := res.Graph(net.N())
	clusters := ClustersWithParams(fg, mcode.Params{MinScore: 3, MinSize: 4})
	if len(clusters) == 0 {
		t.Fatal("pipeline found no clusters")
	}
	dag := ontology.Generate(ontology.GenerateSpec{Depth: 8, Branch: 3, Seed: 2})
	ann := ontology.AnnotateModules(dag, 150, syn.Modules, 6, 3)
	scored := ScoreClusters(dag, ann, fg, clusters)
	foundRelevant := false
	for _, sc := range scored {
		if sc.Score.AEES >= 3 {
			foundRelevant = true
		}
	}
	if !foundRelevant {
		t.Fatal("no biologically relevant cluster in end-to-end pipeline")
	}
}

// ------------------------------------------------------------- the pipeline

// RunPipeline executes the end-to-end chain from a synthesized matrix:
// correlation network, filter, clusters, scores, and stage timings.
func TestRunPipelineEndToEnd(t *testing.T) {
	syn, err := expr.Synthesize(expr.SyntheticSpec{
		Genes: 512, Samples: 48, Modules: 8, ModuleSize: 10, Noise: 0.1, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	dag := ontology.Generate(ontology.GenerateSpec{Depth: 8, Branch: 3, Seed: 4})
	ann := ontology.AnnotateModules(dag, 512, syn.Modules, 5, 5)
	res, err := RunPipeline(context.Background(), PipelineInput{
		Matrix:  syn.M,
		Network: DefaultNetworkOptions(),
		Filter:  FilterOptions{Algorithm: ChordalNoComm, Ordering: HighDegree, P: 4, Seed: 3},
		DAG:     dag,
		Ann:     ann,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Network.M() == 0 {
		t.Fatal("empty correlation network")
	}
	if res.Filtered.M() == 0 || res.Filtered.M() > res.Network.M() {
		t.Fatalf("filtered edges = %d of %d", res.Filtered.M(), res.Network.M())
	}
	if len(res.Clusters) == 0 || len(res.Scored) != len(res.Clusters) {
		t.Fatalf("clusters = %d, scored = %d", len(res.Clusters), len(res.Scored))
	}
	stages := map[string]bool{}
	for _, tm := range res.Timings {
		stages[tm.Stage] = true
	}
	for _, s := range []string{"network", "order", "filter", "cluster", "score"} {
		if !stages[s] {
			t.Fatalf("stage %s missing from timings: %+v", s, res.Timings)
		}
	}
}

// A reusable Pipeline shares artifacts across runs: the second identical
// run is served entirely from the store, and differently-parameterized runs
// share the stages they have in common (the network and its ordering).
func TestPipelineReuseSharesArtifacts(t *testing.T) {
	pr := graph.PlantedModules(500, 900, graph.ModuleSpec{
		Count: 8, MinSize: 6, MaxSize: 8, Density: 0.7, NoiseDeg: 0.5, Window: 3,
	}, 21)
	p := NewPipeline(PipelineConfig{})
	in := PipelineInput{
		Name:   "planted",
		Graph:  pr.G,
		Filter: FilterOptions{Algorithm: ChordalSeq, Ordering: HighDegree, P: 1, Seed: 9},
	}
	first, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	misses := p.Stats().Misses
	second, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if after := p.Stats().Misses; after != misses {
		t.Fatalf("identical rerun recomputed %d artifacts", after-misses)
	}
	if len(first.Clusters) != len(second.Clusters) {
		t.Fatal("rerun returned different clusters")
	}
	for _, tm := range second.Timings {
		if tm.Source != "hit" {
			t.Fatalf("rerun stage %s/%s came from %s, want hit", tm.Stage, tm.Variant, tm.Source)
		}
	}
	// Same ordering, different processor count: the order artifact is shared.
	in.Filter.P = 4
	in.Filter.Algorithm = ChordalNoComm
	third, err := p.Run(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if third.Filtered.M() == 0 {
		t.Fatal("empty filtered graph")
	}
	for _, tm := range third.Timings {
		if tm.Stage == "order" && tm.Source != "hit" {
			t.Fatalf("order stage recomputed on a shared network: %+v", tm)
		}
	}
}

// Cancelling a pipeline run returns ctx.Err() promptly. The cancel delay
// is scaled down from a measured uncancelled run and retried on a fresh
// engine per attempt (RunPipeline now shares a process-wide store, which
// would serve later attempts warm and outrun any cancel), so the test
// cannot race the kernel on fast many-core machines.
func TestPipelineCancellation(t *testing.T) {
	syn, err := expr.Synthesize(expr.SyntheticSpec{
		Genes: 4096, Samples: 100, Modules: 8, ModuleSize: 10, Noise: 0.1, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := PipelineInput{
		Name:    "cancel",
		Matrix:  syn.M,
		Network: DefaultNetworkOptions(),
		Filter:  FilterOptions{Algorithm: ChordalSeq, Seed: 6},
	}
	start := time.Now()
	if _, err := New().Run(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)
	if cold < time.Millisecond {
		cold = time.Millisecond
	}
	for div := time.Duration(4); div <= 256; div *= 2 {
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(cold/div, cancel)
		done := make(chan error, 1)
		go func() {
			_, err := New().Run(ctx, in)
			done <- err
		}()
		select {
		case err := <-done:
			timer.Stop()
			cancel()
			if errors.Is(err, context.Canceled) {
				return // cancellation landed mid-run and returned promptly
			}
			if err != nil {
				t.Fatalf("err = %v, want nil or context.Canceled", err)
			}
			// The run outran this delay; retry with a shorter one.
		case <-time.After(4*cold + 5*time.Second):
			t.Fatal("cancelled pipeline run did not return promptly")
		}
	}
	t.Fatal("could not land a cancellation mid-run")
}
