package parsample

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"parsample/api"
	"parsample/internal/expr"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/ontology"
	"parsample/internal/pipeline"
)

func TestFacadeFilterAndClusters(t *testing.T) {
	pr := graph.PlantedModules(400, 300, graph.ModuleSpec{
		Count: 5, MinSize: 6, MaxSize: 8, Density: 0.8, NoiseDeg: 0.5, Window: 3,
	}, 11)
	ctx := context.Background()
	res, err := FilterContext(ctx, pr.G, FilterOptions{Algorithm: ChordalNoComm, Ordering: HighDegree, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	fg := res.Graph(pr.G.N())
	if fg.M() == 0 || fg.M() > pr.G.M() {
		t.Fatalf("filtered edges = %d of %d", fg.M(), pr.G.M())
	}
	clusters, err := ClustersContext(ctx, fg, ClusterParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) == 0 {
		t.Fatal("no clusters after filtering planted modules")
	}
}

func TestFacadeSeedStreamsIndependent(t *testing.T) {
	g := graph.Gnm(200, 800, 5)
	run := func(seed int64) *Result {
		res, err := FilterContext(context.Background(), g, FilterOptions{Algorithm: RandomWalkPar, Ordering: RandomOrder, P: 4, Seed: seed})
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
	res, err := FilterContext(t.Context(), g, FilterOptions{Algorithm: ChordalSeq, Ordering: Natural})
	if err != nil {
		t.Fatal(err)
	}
	sub := res.Subgraph
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
	ctx := context.Background()
	net, err := BuildCorrelationNetworkContext(ctx, syn.M, expr.DefaultNetworkOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := FilterContext(ctx, net, FilterOptions{Algorithm: ChordalSeq})
	if err != nil {
		t.Fatal(err)
	}
	fg := res.Graph(net.N())
	clusters, err := ClustersContext(ctx, fg, mcode.Params{MinScore: 3, MinSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) == 0 {
		t.Fatal("pipeline found no clusters")
	}
	dag := ontology.Generate(ontology.GenerateSpec{Depth: 8, Branch: 3, Seed: 2})
	ann := ontology.AnnotateModules(dag, 150, syn.Modules, 6, 3)
	scored, err := ScoreClustersContext(ctx, dag, ann, fg, clusters)
	if err != nil {
		t.Fatal(err)
	}
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

// traceDo runs req on p under an observer that records every stage
// request in completion order.
func traceDo(t *testing.T, p *Pipeline, req *api.Request) (*api.Response, []pipeline.TraceEntry) {
	t.Helper()
	var entries []pipeline.TraceEntry
	ctx := pipeline.WithObserver(context.Background(), func(e pipeline.TraceEntry) { entries = append(entries, e) })
	resp, err := p.Do(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, entries
}

// Do executes the end-to-end chain from a synthesized matrix: correlation
// network, filter, clusters, scores, and a trace entry for every stage.
func TestDoTracesEveryStage(t *testing.T) {
	resp, entries := traceDo(t, New(), &api.Request{
		Network: api.NetworkSource{Synthesis: &api.SynthesisSpec{
			Genes: 512, Samples: 48, Modules: intp(8), ModuleSize: intp(10), Seed: 3,
		}},
		Filter: api.FilterSpec{Algorithm: "chordal-nocomm", Ordering: "HD", P: 4, Seed: 3},
	})
	if resp.Network.Edges == 0 {
		t.Fatal("empty correlation network")
	}
	if f := resp.Filtered; f.Edges == 0 || f.Edges > resp.Network.Edges {
		t.Fatalf("filtered edges = %d of %d", f.Edges, resp.Network.Edges)
	}
	if len(resp.Clusters) == 0 || len(resp.Scores) != len(resp.Clusters) {
		t.Fatalf("clusters = %d, scores = %d", len(resp.Clusters), len(resp.Scores))
	}
	stages := map[string]bool{}
	for _, e := range entries {
		stages[e.Key.Stage.String()] = true
	}
	for _, s := range []string{"network", "order", "filter", "cluster", "score"} {
		if !stages[s] {
			t.Fatalf("stage %s missing from trace: %+v", s, entries)
		}
	}
}

// A reusable Pipeline shares artifacts across requests: the second
// identical request is served entirely from the store, and
// differently-parameterized requests share the stages they have in common
// (the network and its ordering).
func TestPipelineReuseSharesArtifacts(t *testing.T) {
	pr := graph.PlantedModules(500, 900, graph.ModuleSpec{
		Count: 8, MinSize: 6, MaxSize: 8, Density: 0.7, NoiseDeg: 0.5, Window: 3,
	}, 21)
	var edges bytes.Buffer
	if err := WriteNetwork(&edges, pr.G); err != nil {
		t.Fatal(err)
	}
	p := New()
	req := &api.Request{
		Network: api.NetworkSource{EdgeList: edges.String()},
		Filter:  api.FilterSpec{Algorithm: "chordal-seq", Ordering: "HD", P: 1, Seed: 9},
	}
	first, _ := traceDo(t, p, req)
	misses := p.Stats().Misses
	second, entries := traceDo(t, p, req)
	if after := p.Stats().Misses; after != misses {
		t.Fatalf("identical rerun recomputed %d artifacts", after-misses)
	}
	if len(first.Clusters) != len(second.Clusters) {
		t.Fatal("rerun returned different clusters")
	}
	for _, e := range entries {
		if e.Source.String() != "hit" {
			t.Fatalf("rerun stage %s/%s came from %s, want hit", e.Key.Stage, e.Key.Variant, e.Source)
		}
	}
	// Same ordering, different processor count: the order artifact is shared.
	req.Filter.P = 4
	req.Filter.Algorithm = "chordal-nocomm"
	third, entries := traceDo(t, p, req)
	if third.Filtered.Edges == 0 {
		t.Fatal("empty filtered graph")
	}
	for _, e := range entries {
		if e.Key.Stage.String() == "order" && e.Source.String() != "hit" {
			t.Fatalf("order stage recomputed on a shared network: %+v", e)
		}
	}
}

// Cancelling a request returns ctx.Err() promptly. The cancel delay is
// scaled down from a measured uncancelled run and retried on a fresh
// Pipeline per attempt (a shared one would serve later attempts warm and
// outrun any cancel), so the test cannot race the kernel on fast many-core
// machines.
func TestPipelineCancellation(t *testing.T) {
	req := &api.Request{
		Network: api.NetworkSource{Synthesis: &api.SynthesisSpec{
			Genes: 4096, Samples: 100, Modules: intp(8), ModuleSize: intp(10), Seed: 6,
		}},
		Filter: api.FilterSpec{Algorithm: "chordal-seq", Seed: 6},
	}
	start := time.Now()
	if _, err := New().Do(context.Background(), req); err != nil {
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
			_, err := New().Do(ctx, req)
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
