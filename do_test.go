package parsample

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"parsample/api"
	"parsample/internal/expr"
	"parsample/internal/graph"
	"parsample/internal/ontology"
)

func synthRequest() *api.Request {
	return &api.Request{
		Network: api.NetworkSource{Synthesis: &api.SynthesisSpec{
			Genes: 192, Samples: 24, Modules: intp(4), ModuleSize: intp(8), Seed: 7,
		}},
		Filter: api.FilterSpec{Algorithm: "chordal-nocomm", Ordering: "HD", P: 4, Seed: 3},
	}
}

func intp(v int) *int { return &v }

func TestDoEndToEnd(t *testing.T) {
	p := New()
	resp, err := p.Do(context.Background(), synthRequest())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Network.Vertices != 192 || resp.Network.Edges == 0 {
		t.Fatalf("network = %+v", resp.Network)
	}
	if resp.Filtered == nil || resp.Filtered.Edges == 0 {
		t.Fatalf("filtered = %+v", resp.Filtered)
	}
	if len(resp.Clusters) == 0 || len(resp.Scores) != len(resp.Clusters) {
		t.Fatalf("clusters = %d, scores = %d", len(resp.Clusters), len(resp.Scores))
	}

	// Warm rerun: byte-identical JSON, no recomputation.
	misses := p.Stats().Misses
	resp2, err := p.Do(context.Background(), synthRequest())
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(resp)
	b2, _ := json.Marshal(resp2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("warm rerun produced different response bytes")
	}
	if after := p.Stats().Misses; after != misses {
		t.Fatalf("warm rerun recomputed %d artifacts", after-misses)
	}
}

func TestDoAlgorithmNoneClustersOriginal(t *testing.T) {
	g := graph.PlantedModules(300, 200, graph.ModuleSpec{
		Count: 5, MinSize: 6, MaxSize: 8, Density: 0.8, NoiseDeg: 0.4, Window: 3,
	}, 13)
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, g.G); err != nil {
		t.Fatal(err)
	}
	req := &api.Request{
		Network: api.NetworkSource{EdgeList: buf.String()},
		Filter:  api.FilterSpec{Algorithm: api.AlgorithmNone},
	}
	resp, err := New().Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Filtered != nil {
		t.Fatalf("algorithm none should omit the filtered section: %+v", resp.Filtered)
	}
	if len(resp.Clusters) == 0 {
		t.Fatal("no clusters on the unfiltered network")
	}
	if resp.Scores != nil {
		t.Fatal("edge list without ontology should not score")
	}
	// Matches the direct kernel path on the same graph.
	direct, err := ClustersContext(context.Background(), g.G, ClusterParams{})
	if err != nil {
		t.Fatal(err)
	}
	if len(direct) != len(resp.Clusters) {
		t.Fatalf("Do found %d clusters, direct kernel %d", len(resp.Clusters), len(direct))
	}
}

func TestDoEdgeListWithInlineOntologyAndEdges(t *testing.T) {
	pr := graph.PlantedModules(300, 200, graph.ModuleSpec{
		Count: 5, MinSize: 6, MaxSize: 8, Density: 0.8, NoiseDeg: 0.4, Window: 3,
	}, 17)
	dag := ontology.Generate(ontology.GenerateSpec{Depth: 8, Branch: 3, Seed: 2})
	ann := ontology.AnnotateModules(dag, 300, pr.Modules, 5, 3)
	var net, dagBuf, annBuf bytes.Buffer
	if err := WriteNetwork(&net, pr.G); err != nil {
		t.Fatal(err)
	}
	if err := ontology.WriteDAG(&dagBuf, dag); err != nil {
		t.Fatal(err)
	}
	if err := ontology.WriteAnnotations(&annBuf, ann); err != nil {
		t.Fatal(err)
	}
	req := &api.Request{
		Network: api.NetworkSource{EdgeList: net.String()},
		Filter:  api.FilterSpec{Algorithm: "chordal-seq"},
		Score:   api.ScoreSpec{DAG: dagBuf.String(), Annotations: annBuf.String()},
		Output:  api.OutputSpec{Edges: true},
	}
	resp, err := New().Do(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Scores) != len(resp.Clusters) || len(resp.Clusters) == 0 {
		t.Fatalf("clusters = %d, scores = %d", len(resp.Clusters), len(resp.Scores))
	}
	if len(resp.Filtered.EdgeList) != resp.Filtered.Edges {
		t.Fatalf("edge list has %d pairs, filtered reports %d", len(resp.Filtered.EdgeList), resp.Filtered.Edges)
	}
	for i := 1; i < len(resp.Filtered.EdgeList); i++ {
		a, b := resp.Filtered.EdgeList[i-1], resp.Filtered.EdgeList[i]
		if a[0] > b[0] || (a[0] == b[0] && a[1] >= b[1]) {
			t.Fatalf("edge list not in canonical order at %d: %v, %v", i, a, b)
		}
	}
}

// Do and the direct kernel chain compute the same thing from one
// synthesized request: correlation network → FilterContext (with the
// documented seed split) → ClustersContext → ScoreClustersContext, against
// the ontology the synthesis source generates. This pins the seed-split
// contract and the request→kernel parameter mapping through the single
// request path.
func TestDoMatchesDirectKernels(t *testing.T) {
	ctx := context.Background()
	minR, maxP := 0.5, 0.01
	syn := &api.SynthesisSpec{Genes: 512, Samples: 32, Modules: intp(10), ModuleSize: intp(12), Noise: floatp(1), Seed: 5}
	m, err := expr.Synthesize(expr.SyntheticSpec{
		Genes: syn.Genes, Samples: syn.Samples, Modules: *syn.Modules, ModuleSize: *syn.ModuleSize, Noise: *syn.Noise, Seed: syn.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	dag := ontology.Generate(ontology.GenerateSpec{Depth: 10, Branch: 3, Seed: syn.Seed + 1})
	ann := ontology.AnnotateModules(dag, syn.Genes, m.Modules, 6, syn.Seed+2)
	net, err := BuildCorrelationNetworkContext(ctx, m.M, NetworkOptions{Kind: PearsonCorr, MinAbsR: minR, MaxP: maxP})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []FilterOptions{
		{Algorithm: ChordalNoComm, Ordering: HighDegree, P: 4, Seed: 11},
		{Algorithm: RandomWalkPar, Ordering: RandomOrder, P: 4, Seed: 11},
	} {
		t.Run(v.Algorithm.String(), func(t *testing.T) {
			resp, err := New().Do(ctx, &api.Request{
				Network: api.NetworkSource{
					Synthesis:   syn,
					Correlation: &api.CorrelationSpec{MinAbsR: &minR, MaxP: &maxP},
				},
				Filter: api.FilterSpec{Algorithm: v.Algorithm.String(), Ordering: v.Ordering.String(), P: v.P, Seed: v.Seed},
				Output: api.OutputSpec{Edges: true},
			})
			if err != nil {
				t.Fatal(err)
			}
			filt, err := FilterContext(ctx, net, v)
			if err != nil {
				t.Fatal(err)
			}
			clusters, err := ClustersContext(ctx, filt.Subgraph, ClusterParams{})
			if err != nil {
				t.Fatal(err)
			}
			scored, err := ScoreClustersContext(ctx, dag, ann, filt.Subgraph, clusters)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Network.Vertices != net.N() || resp.Network.Edges != net.M() {
				t.Fatalf("network = %+v, direct %d vertices %d edges", resp.Network, net.N(), net.M())
			}
			if filt.Subgraph.M() == net.M() || len(clusters) == 0 {
				t.Fatalf("degenerate fixture: kept %d of %d edges, %d clusters", filt.Subgraph.M(), net.M(), len(clusters))
			}
			direct := filt.Subgraph.Edges()
			if len(resp.Filtered.EdgeList) != len(direct) {
				t.Fatalf("Do kept %d edges, direct %d", len(resp.Filtered.EdgeList), len(direct))
			}
			for i, e := range direct {
				if resp.Filtered.EdgeList[i] != [2]int32{e.U, e.V} {
					t.Fatalf("filtered edge %d: Do %v, direct %v", i, resp.Filtered.EdgeList[i], e)
				}
			}
			if resp.Filtered.BorderEdges != filt.BorderEdges || resp.Filtered.Duplicates != filt.DuplicateBorderEdges {
				t.Fatalf("border telemetry: Do %+v, direct %d/%d", resp.Filtered, filt.BorderEdges, filt.DuplicateBorderEdges)
			}
			if len(resp.Clusters) != len(clusters) || len(resp.Scores) != len(scored) {
				t.Fatalf("Do found %d clusters/%d scores, direct %d/%d", len(resp.Clusters), len(resp.Scores), len(clusters), len(scored))
			}
			for i, c := range clusters {
				got := resp.Clusters[i]
				if got.ID != c.ID || !slices.Equal(got.Vertices, c.Vertices) || got.Edges != c.Edges ||
					got.Density != c.Density || got.Score != c.Score {
					t.Fatalf("cluster %d: Do %+v, direct %+v", i, got, c)
				}
				sc, ds := resp.Scores[i], scored[i]
				if sc.ClusterID != ds.Cluster.ID || sc.AEES != ds.Score.AEES || sc.Edges != ds.Score.Edges {
					t.Fatalf("score %d: Do %+v, direct %+v", i, sc, ds.Score)
				}
			}
		})
	}
}

func floatp(v float64) *float64 { return &v }

func TestWithDatasetsRestriction(t *testing.T) {
	p := New(WithDatasets("YNG"))
	if _, err := p.Do(context.Background(), &api.Request{Network: api.NetworkSource{Dataset: "CRE"}}); err == nil {
		t.Fatal("restricted pipeline served CRE")
	} else {
		var ae *api.Error
		if !errors.As(err, &ae) || ae.Code != api.CodeBadRequest {
			t.Fatalf("err = %v, want bad_request", err)
		}
	}
	resp, err := p.Do(context.Background(), &api.Request{
		Network: api.NetworkSource{Dataset: "YNG"},
		Filter:  api.FilterSpec{Algorithm: "chordal-nocomm", Ordering: "HD", P: 8, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Network.Vertices != 5348 {
		t.Fatalf("YNG vertices = %d", resp.Network.Vertices)
	}
	if len(resp.Scores) == 0 {
		t.Fatal("dataset source should score by default")
	}
}

// An inline annotation naming a term the inline DAG does not have is a bad
// request, not a scoring-kernel panic.
func TestDoRejectsUnknownAnnotationTerm(t *testing.T) {
	req := &api.Request{
		Network: api.NetworkSource{EdgeList: "0 1\n1 2\n2 3\n"},
		Filter:  api.FilterSpec{Algorithm: "none"},
		Score: api.ScoreSpec{
			DAG:         "[Term]\nid: 0\n\n[Term]\nid: 1\nis_a: 0\n",
			Annotations: "0\t1\n3\t999\n",
		},
	}
	_, err := New().Do(context.Background(), req)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeBadRequest || !strings.Contains(ae.Message, "999") {
		t.Fatalf("err = %v, want bad_request naming term 999", err)
	}
}

func TestDoRejectsOversizedSynthesis(t *testing.T) {
	req := &api.Request{Network: api.NetworkSource{Synthesis: &api.SynthesisSpec{
		Genes: 100_000_000, Samples: 100_000, Seed: 1,
	}}}
	_, err := New().Do(context.Background(), req)
	var ae *api.Error
	if !errors.As(err, &ae) || ae.Code != api.CodeBadRequest {
		t.Fatalf("err = %v, want bad_request (dimension cap)", err)
	}
}

func TestParseNames(t *testing.T) {
	for _, name := range api.Algorithms() {
		if name == api.AlgorithmNone {
			continue
		}
		a, ok := ParseAlgorithm(name)
		if !ok || a.String() != name {
			t.Fatalf("ParseAlgorithm(%q) = %v, %v", name, a, ok)
		}
	}
	for _, name := range api.Orderings() {
		o, ok := ParseOrdering(name)
		if !ok || o.String() != name {
			t.Fatalf("ParseOrdering(%q) = %v, %v", name, o, ok)
		}
	}
	if _, ok := ParseAlgorithm("nope"); ok {
		t.Fatal("accepted unknown algorithm")
	}
	if _, ok := ParseOrdering("nope"); ok {
		t.Fatal("accepted unknown ordering")
	}
}

// TestResolverCacheByteBound pins both resolver bounds: entries beyond the
// byte budget of matrices are evicted least recently used first, the
// newest entry stays even when it alone exceeds the budget, and the entry
// count cap still applies to matrix-less sources.
func TestResolverCacheByteBound(t *testing.T) {
	var c resolverCache
	c.init(3, 100)
	put := func(key string, genes, samples int) {
		t.Helper()
		ri := &resolvedInput{name: key}
		if genes > 0 {
			ri.matrix = expr.NewMatrix(genes, samples)
		}
		if _, err := c.do(context.Background(), key, func() (*resolvedInput, error) { return ri, nil }); err != nil {
			t.Fatal(err)
		}
	}
	resident := func(want ...string) {
		t.Helper()
		var got []string
		for _, k := range []string{"a", "b", "c", "d", "e", "f", "g"} {
			if c.contains(k) {
				got = append(got, k)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("resident %v, want %v (used %d bytes)", got, want, c.used)
		}
	}
	put("a", 2, 3) // 48 bytes
	put("b", 2, 3) // 96
	resident("a", "b")
	put("c", 1, 1) // 104 > 100: evicts a
	resident("b", "c")
	put("d", 20, 1) // 160 bytes on its own: stays, evicts the rest
	resident("d")
	if c.used != 160 {
		t.Fatalf("used = %d, want 160", c.used)
	}
	put("e", 0, 0) // 160 > 100 with two entries: d goes
	resident("e")
	put("f", 0, 0)
	put("g", 0, 0)
	resident("e", "f", "g")
	put("a", 0, 0) // four entries > cap 3: e goes
	resident("a", "f", "g")
}

// A panicking materialization fails only the calls that share its flight:
// the panic comes back as an error, the flight closes, the next call for
// the key recomputes instead of blocking on it, and a caller waiting on a
// flight returns ctx.Err() once its context ends.
func TestResolverPanicContained(t *testing.T) {
	var c resolverCache
	c.init(4, 1<<20)
	ctx := context.Background()
	_, err := c.do(ctx, "k", func() (*resolvedInput, error) { panic("synthesis bug") })
	if err == nil || !strings.Contains(err.Error(), "synthesis bug") {
		t.Fatalf("panicking compute returned %v, want an error naming the panic", err)
	}
	if strings.Contains(err.Error(), "goroutine ") {
		t.Fatalf("contained panic error carries a goroutine stack: %q", err)
	}
	if c.contains("k") {
		t.Fatal("a panicked resolution was cached")
	}

	second := make(chan error, 1)
	go func() {
		_, err := c.do(ctx, "k", func() (*resolvedInput, error) { return &resolvedInput{name: "k"}, nil })
		second <- err
	}()
	select {
	case err := <-second:
		if err != nil {
			t.Fatalf("recompute after a panic: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("the next call for the key is blocked on the panicked flight")
	}
	if !c.contains("k") {
		t.Fatal("the recomputed resolution was not cached")
	}

	started, release := make(chan struct{}), make(chan struct{})
	owner := make(chan error, 1)
	go func() {
		_, err := c.do(ctx, "slow", func() (*resolvedInput, error) {
			close(started)
			<-release
			return &resolvedInput{name: "slow"}, nil
		})
		owner <- err
	}()
	<-started
	wctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := c.do(wctx, "slow", func() (*resolvedInput, error) {
		t.Error("a waiter computed the key its flight owner is computing")
		return nil, nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(release)
	if err := <-owner; err != nil {
		t.Fatalf("flight owner: %v", err)
	}
}
