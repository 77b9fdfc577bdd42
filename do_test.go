package parsample

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"slices"
	"strings"
	"testing"

	"parsample/api"
	"parsample/internal/expr"
	"parsample/internal/faultinject"
	"parsample/internal/graph"
	"parsample/internal/ontology"
	"parsample/internal/pipeline"
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

// Eight concurrent identical cold requests materialize their synthesized
// source once, though the network and score stages it feeds may be led by
// different requests, and a request that differs only in its correlation
// thresholds builds its own network.
func TestDoResolvesSourceOnce(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	// A zero delay counts every materialization and changes nothing else.
	faultinject.Enable("parsample.resolve", faultinject.Spec{Mode: faultinject.ModeDelay})
	p := New()
	const n = 8
	errs := make(chan error, n)
	for range n {
		go func() {
			_, err := p.Do(context.Background(), synthRequest())
			errs <- err
		}()
	}
	for range n {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := faultinject.Hits("parsample.resolve"); got != 1 {
		t.Fatalf("%d identical requests materialized their source %d times, want once", n, got)
	}

	req := synthRequest()
	minR, maxP := 0.7, 0.001
	req.Network.Correlation = &api.CorrelationSpec{MinAbsR: &minR, MaxP: &maxP}
	misses := p.Stats().Misses
	if _, err := p.Do(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if p.Stats().Misses == misses {
		t.Fatal("a threshold-only change reused the old network")
	}
}

// A panic while materializing a source fails only its own request: the
// error names the panic without a goroutine stack, nothing is cached, and
// the next identical request materializes the source afresh.
func TestDoResolvePanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	p := New()
	faultinject.Enable("parsample.resolve", faultinject.Spec{Mode: faultinject.ModePanic, Count: 1})
	_, err := p.Do(context.Background(), synthRequest())
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("Do under a resolve panic returned %v, want a contained panic error", err)
	}
	if strings.Contains(err.Error(), "goroutine ") {
		t.Fatalf("contained panic error carries a goroutine stack: %q", err)
	}
	if p.Resident(synthRequest()) {
		t.Fatal("a panicked resolution was cached")
	}
	if _, err := p.Do(context.Background(), synthRequest()); err != nil {
		t.Fatalf("the request after a resolve panic: %v", err)
	}
	if got := faultinject.Hits("parsample.resolve"); got != 2 {
		t.Fatalf("source materialized %d times, want twice: the panicked attempt and the retry", got)
	}
}

// Stage keys carry only what their artifact depends on: a request that
// changes only filter.seed reuses the network (HD ignores the order seed,
// so the order too), and one that changes only an MCODE knob reuses the
// network and the filtered network, so its order is never recomputed.
func TestDoStageKeysShareUpstreamArtifacts(t *testing.T) {
	p := New()
	sources := func(req *api.Request) map[pipeline.Stage]pipeline.Source {
		t.Helper()
		_, entries := traceDo(t, p, req)
		got := map[pipeline.Stage]pipeline.Source{}
		for _, e := range entries {
			if _, seen := got[e.Key.Stage]; !seen {
				got[e.Key.Stage] = e.Source
			}
		}
		return got
	}
	sources(synthRequest())

	reseeded := synthRequest()
	reseeded.Filter.Seed++
	got := sources(reseeded)
	if got[pipeline.StageNetwork] != pipeline.Hit || got[pipeline.StageOrder] != pipeline.Hit || got[pipeline.StageFilter] != pipeline.Computed {
		t.Fatalf("filter.seed change: stage sources %v, want network and order hit, filter computed", got)
	}

	haircut := synthRequest()
	h := false
	haircut.Cluster.Haircut = &h
	got = sources(haircut)
	if got[pipeline.StageNetwork] != pipeline.Hit || got[pipeline.StageFilter] != pipeline.Hit ||
		got[pipeline.StageCluster] != pipeline.Computed {
		t.Fatalf("haircut change: stage sources %v, want network and filter hit, cluster computed", got)
	}
	if src, ok := got[pipeline.StageOrder]; ok && src != pipeline.Hit {
		t.Fatalf("haircut change: order %v, want it reused", src)
	}

	// A parsed edge list is a stored network artifact like a swept one.
	edges := &api.Request{
		Network: api.NetworkSource{EdgeList: planted(t)},
		Filter:  api.FilterSpec{Algorithm: "chordal-nocomm", Ordering: "HD", P: 2, Seed: 3},
	}
	if got := sources(edges); got[pipeline.StageNetwork] != pipeline.Computed {
		t.Fatalf("cold edge list: stage sources %v, want network computed", got)
	}
	edges.Filter.Seed++
	got = sources(edges)
	if got[pipeline.StageNetwork] != pipeline.Hit || got[pipeline.StageFilter] != pipeline.Computed {
		t.Fatalf("edge list filter.seed change: stage sources %v, want network hit, filter computed", got)
	}
}

// planted is a modular edge list in the wire format.
func planted(t *testing.T) string {
	t.Helper()
	g := graph.PlantedModules(300, 200, graph.ModuleSpec{
		Count: 5, MinSize: 6, MaxSize: 8, Density: 0.8, NoiseDeg: 0.4, Window: 3,
	}, 13)
	var buf bytes.Buffer
	if err := WriteNetwork(&buf, g.G); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// A parsed edge list is snapshotted like a swept network: after a restart
// on the same cache directory, the edge-list request is resident, its
// network stage loads from disk, and the response is byte-identical.
func TestDoEdgeListNetworkFromDisk(t *testing.T) {
	dir := t.TempDir()
	req := &api.Request{
		Network: api.NetworkSource{EdgeList: planted(t)},
		Filter:  api.FilterSpec{Algorithm: api.AlgorithmNone},
	}
	p := New(WithCacheDir(dir))
	if p.Resident(req) {
		t.Fatal("an edge list no request has parsed is resident")
	}
	cold, _ := traceDo(t, p, req)
	p.Close()

	restarted := New(WithCacheDir(dir))
	defer restarted.Close()
	if !restarted.Resident(req) {
		t.Fatal("the edge-list network is not resident after a restart on its cache directory")
	}
	warm, entries := traceDo(t, restarted, req)
	var network pipeline.Source = -1
	for _, e := range entries {
		if e.Key.Stage == pipeline.StageNetwork {
			network = e.Source
			break
		}
	}
	if network != pipeline.Disk {
		t.Fatalf("edge-list network after a restart: %v, want disk", network)
	}
	b1, _ := json.Marshal(cold)
	b2, _ := json.Marshal(warm)
	if !bytes.Equal(b1, b2) {
		t.Fatal("disk-warm response differs from the cold one")
	}
}
