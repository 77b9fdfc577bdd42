package parsample

// One benchmark per table/figure of the paper's evaluation. Each benchmark
// regenerates the corresponding figure's data through the drivers in
// internal/experiments; run with
//
//	go test -bench=Fig -benchmem .
//
// The benchmarked quantity is the wall time to reproduce the figure on this
// machine; the figures' own content (who wins, by what factor) is asserted
// by the tests in internal/experiments.

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"parsample/internal/chordal"
	"parsample/internal/datasets"
	"parsample/internal/experiments"
	"parsample/internal/expr"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/pipeline"
	"parsample/internal/sampling"
)

// BenchmarkFig04AEESByOrdering regenerates Figure 4 (AEES per cluster across
// the ORIG/HD/LD/NO/RCM variants of YNG and MID).
func BenchmarkFig04AEESByOrdering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig05Overlap regenerates Figure 5 (node/edge overlap scatter,
// original vs sampled, for UNT and CRE plus newly discovered clusters).
func BenchmarkFig05Overlap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Fig5(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(pts) == 0 {
			b.Fatal("no points")
		}
	}
}

// BenchmarkFig06NodeOverlapAEES regenerates Figure 6 (node overlap vs AEES,
// all networks). Figure 7 plots the same points, so it has no benchmark of
// its own.
func BenchmarkFig06NodeOverlapAEES(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if pts, err := experiments.Fig6(context.Background()); err != nil || len(pts) == 0 {
			b.Fatalf("pts=%d err=%v", len(pts), err)
		}
	}
}

// BenchmarkFig08SensSpec regenerates Figure 8 (sensitivity/specificity of
// node- vs edge-overlap cluster matching).
func BenchmarkFig08SensSpec(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig8(context.Background())
		if err != nil || len(rows) != 2 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

// BenchmarkFig09CaseStudy regenerates Figure 9 (the filtering case study:
// the cluster whose AEES improves most under the chordal filter).
func BenchmarkFig09CaseStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Scalability regenerates Figure 10 (execution time vs
// processor count for the three parallel sampling algorithms on YNG and
// CRE).
func BenchmarkFig10Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig10(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkScalingSweep runs the generalized scalability study (the
// `experiments -fig scaling` sweep) on its small and synthetic inputs —
// YNG plus the Gnm/R-MAT stress generators — across the full processor
// range. This is the runtime's end-to-end stress: every point exercises
// the progress engine, virtual clocks and the Gatherv merge.
func BenchmarkScalingSweep(b *testing.B) {
	cfg := experiments.DefaultScalingConfig()
	// Drop CRE (the big network) so the bench stays minutes-not-hours at
	// high -benchtime; `-fig scaling` still covers it.
	nets := cfg.Networks[:0:0]
	for _, n := range cfg.Networks {
		if n.Name != "CRE" {
			nets = append(nets, n)
		}
	}
	cfg.Networks = nets
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Scaling(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig11ParallelQuality regenerates Figure 11 (CRE natural order:
// 1P vs 64P cluster overlap and top clusters).
func BenchmarkFig11ParallelQuality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Fig11(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRandomWalkControl regenerates the Section IV.B text result (the
// random-walk control filter finds essentially no clusters).
func BenchmarkRandomWalkControl(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RandomWalkClusters(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------- pipeline

// BenchmarkPipelineEndToEnd runs the full YNG chain — ordering, chordal
// filter, MCODE, AEES scoring, original-vs-filtered matching — through the
// pipeline engine, cold (fresh engine per iteration: every stage computes)
// vs warm (shared engine: every stage is a store hit). The warm/cold ratio
// is the cache-regression signal; warm must stay orders of magnitude below
// cold (acceptance bar: ≥5×).
func BenchmarkPipelineEndToEnd(b *testing.B) {
	ds := datasets.YNG()
	in := pipeline.FromDataset(ds)
	v := pipeline.Variant{Ordering: graph.HighDegree, Algorithm: sampling.ChordalSeq, P: 1}
	run := func(b *testing.B, e *pipeline.Engine) {
		ms, err := e.Matches(context.Background(), in, v)
		if err != nil {
			b.Fatal(err)
		}
		if len(ms) == 0 {
			b.Fatal("no matches")
		}
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run(b, pipeline.New(pipeline.Config{}))
		}
	})
	b.Run("warm", func(b *testing.B) {
		b.ReportAllocs()
		e := pipeline.New(pipeline.Config{})
		run(b, e) // prime the store outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			run(b, e)
		}
	})
}

// --------------------------------------------------------------- ablations

// BenchmarkAblationSamplersYNG times the raw filters on the small network
// (wall clock, not the Figure 10 cost model).
func BenchmarkAblationSamplersYNG(b *testing.B) {
	ds := datasets.YNG()
	ord := graph.Order(ds.G, graph.Natural, ds.Seed)
	for _, alg := range []sampling.Algorithm{
		sampling.ChordalSeq, sampling.ChordalComm, sampling.ChordalNoComm, sampling.RandomWalkSeq,
	} {
		b.Run(alg.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sampling.Run(alg, ds.G, sampling.Options{Order: ord, P: 8, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationWallClockParallel measures the real goroutine speedup of
// the communication-free filter on the large network (the harness's actual
// parallelism, complementing the modeled cluster times of Figure 10).
func BenchmarkAblationWallClockParallel(b *testing.B) {
	ds := datasets.CRE()
	ord := graph.Order(ds.G, graph.Natural, ds.Seed)
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("P=%d", p), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sampling.Run(sampling.ChordalNoComm, ds.G, sampling.Options{Order: ord, P: p}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLostFoundClusters regenerates the Section IV.A lost/found table.
func BenchmarkLostFoundClusters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows, err := experiments.LostFound(context.Background()); err != nil || len(rows) == 0 {
			b.Fatalf("rows=%d err=%v", len(rows), err)
		}
	}
}

// BenchmarkAblationCliqueRetention regenerates the H0 clique-retention study.
func BenchmarkAblationCliqueRetention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.CliqueRetentionStudy(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationHubPreservation regenerates the centrality-preservation
// extension table (hub survival per filter).
func BenchmarkAblationHubPreservation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.HubPreservation(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationBorderRule regenerates the border-admission ablation
// (triangle rule vs coin flip).
func BenchmarkAblationBorderRule(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.BorderRuleAblation(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// ------------------------------------------------- substrate micro-benchmarks
//
// These track the CSR/bitset core across PRs (BENCH_*.json): adjacency
// probes, bitset intersection, and the DSW + MCODE kernels on the two
// generator families (Erdős–Rényi via Gnm, power-law via RMAT).

// benchGraphs returns the generator graphs the substrate benchmarks run on.
func benchGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"ER":   graph.Gnm(8192, 65536, 1),
		"RMAT": graph.RMAT(13, 8, 0, 0, 0, 2),
	}
}

// BenchmarkHasEdge measures adjacency probes on the CSR rows (binary/linear
// search) and on the dense bitset rows, over a fixed random query mix.
func BenchmarkHasEdge(b *testing.B) {
	for name, g := range benchGraphs() {
		n := int32(g.N())
		queries := make([][2]int32, 4096)
		rngState := uint64(12345)
		next := func() int32 {
			rngState = rngState*6364136223846793005 + 1442695040888963407
			return int32((rngState >> 33) % uint64(n))
		}
		for i := range queries {
			u, v := next(), next()
			if u == v {
				v = (v + 1) % n
			}
			queries[i] = [2]int32{u, v}
		}
		b.Run(name+"/csr", func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if g.HasEdgeFast(q[0], q[1]) {
					hits++
				}
			}
			_ = hits
		})
		g.EnsureDense()
		b.Run(name+"/dense", func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				q := queries[i%len(queries)]
				if g.HasEdgeFast(q[0], q[1]) {
					hits++
				}
			}
			_ = hits
		})
	}
}

// BenchmarkBitsetIntersect measures the word-parallel intersection popcount
// used by the clique checks (8192-bit universes, one-third occupancy).
func BenchmarkBitsetIntersect(b *testing.B) {
	x := graph.NewBitset(8192)
	y := graph.NewBitset(8192)
	for i := int32(0); i < 8192; i += 3 {
		x.Set(i)
	}
	for i := int32(0); i < 8192; i += 5 {
		y.Set(i)
	}
	b.Run("AndCount", func(b *testing.B) {
		total := 0
		for i := 0; i < b.N; i++ {
			total += x.AndCount(y)
		}
		_ = total
	})
}

// BenchmarkChordalMaximalSubgraph times the DSW kernel on the generator
// graphs — the acceptance metric for the CSR/bitset refactor.
func BenchmarkChordalMaximalSubgraph(b *testing.B) {
	for name, g := range benchGraphs() {
		ord := graph.Order(g, graph.Natural, 0)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := chordal.MaximalSubgraph(g, ord); len(res.Edges) == 0 {
					b.Fatal("empty chordal subgraph")
				}
			}
		})
	}
}

// BenchmarkParallelChordal times the two parallel chordal samplers
// in-process at P ∈ {1, 2, 8} on the distributed study's RMAT graph
// (natural order) and on CRE in high-degree order, and reports the edges
// each run keeps, so a kernel change that moves the output shows here too.
func BenchmarkParallelChordal(b *testing.B) {
	cre := datasets.CRE()
	dist := experiments.DistGraph()
	inputs := []struct {
		name  string
		g     *graph.Graph
		order []int32
	}{
		{"DistGraph", dist, graph.NaturalOrder(dist.N())},
		{"CRE-HD", cre.G, graph.Order(cre.G, graph.HighDegree, cre.Seed)},
	}
	for _, in := range inputs {
		for _, alg := range []sampling.Algorithm{sampling.ChordalComm, sampling.ChordalNoComm} {
			for _, p := range []int{1, 2, 8} {
				b.Run(fmt.Sprintf("%s/%v/P=%d", in.name, alg, p), func(b *testing.B) {
					b.ReportAllocs()
					var res *sampling.Result
					for i := 0; i < b.N; i++ {
						var err error
						if res, err = sampling.Run(alg, in.g, sampling.Options{Order: in.order, P: p}); err != nil {
							b.Fatal(err)
						}
					}
					b.ReportMetric(float64(res.Subgraph.M()), "edges")
				})
			}
		}
	}
}

// BenchmarkOrderings times the degree-keyed vertex orderings on CRE, the
// largest evaluation network: HD and LD are counting sorts by degree, RCM
// a BFS whose frontiers sort by (degree, id) rank.
func BenchmarkOrderings(b *testing.B) {
	g := datasets.CRE().G
	for _, o := range []graph.Ordering{graph.HighDegree, graph.LowDegree, graph.RCM} {
		b.Run(o.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if ord := graph.Order(g, o, 0); len(ord) != g.N() {
					b.Fatal("short ordering")
				}
			}
		})
	}
}

// BenchmarkMCODEClusters times MCODE complex prediction on the generator
// graphs (vertex weighting dominates).
func BenchmarkMCODEClusters(b *testing.B) {
	for name, g := range benchGraphs() {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mcode.FindClusters(g, mcode.DefaultParams())
			}
		})
	}
}

// BenchmarkFindClustersChordal times MCODE on chordal-filtered dataset
// networks: sparse, tree-like graphs where almost every seed grows a forest
// that the haircut empties. The LD-ordered chordal-seq filters of YNG and
// CRE are the slowest such cells of the paper's grid.
func BenchmarkFindClustersChordal(b *testing.B) {
	for _, ds := range []*datasets.Dataset{datasets.YNG(), datasets.CRE()} {
		ord := graph.Order(ds.G, graph.LowDegree, ds.Seed)
		res, err := sampling.Run(sampling.ChordalSeq, ds.G, sampling.Options{Order: ord, P: 1, Seed: ds.Seed})
		if err != nil {
			b.Fatal(err)
		}
		g := res.Graph(ds.G.N())
		b.Run(ds.Name+"/chordal-seq/LD", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				mcode.FindClusters(g, mcode.DefaultParams())
			}
		})
	}
}

// BenchmarkFindClustersGrid times MCODE over the filtered graphs of
// perfbench dataset-cold's HD cells: {YNG, MID, CRE} × the seven samplers,
// the parallel ones at P=4, without CRE chordal-seq, which dataset-cold
// leaves out too. One op clusters all 20 graphs.
func BenchmarkFindClustersGrid(b *testing.B) {
	var graphs []*graph.Graph
	for _, ds := range []*datasets.Dataset{datasets.YNG(), datasets.MID(), datasets.CRE()} {
		ord := graph.Order(ds.G, graph.HighDegree, ds.Seed)
		for _, alg := range sampling.All {
			if ds.Name == "CRE" && alg == sampling.ChordalSeq {
				continue
			}
			p := 1
			if slices.Contains(experiments.DistAlgorithms, alg) {
				p = 4
			}
			res, err := sampling.Run(alg, ds.G, sampling.Options{Order: ord, P: p, Seed: ds.Seed})
			if err != nil {
				b.Fatal(err)
			}
			graphs = append(graphs, res.Graph(ds.G.N()))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range graphs {
			mcode.FindClusters(g, mcode.DefaultParams())
		}
	}
}

// BenchmarkBuildNetwork times the correlation front end — the z-scored,
// panel-blocked all-pairs engine behind expr.BuildNetwork — for both
// statistics on the two reference matrix shapes. The 4096×100 Pearson
// case is the acceptance metric for the vectorized kernel (≥3× over the
// scalar tiled engine).
func BenchmarkBuildNetwork(b *testing.B) {
	for _, shape := range []struct{ genes, samples int }{
		{2048, 64},
		{4096, 100},
	} {
		res, err := expr.Synthesize(expr.SyntheticSpec{
			Genes: shape.genes, Samples: shape.samples,
			Modules: 16, ModuleSize: 12, Noise: 0.1, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, kind := range []expr.CorrelationKind{expr.PearsonCorr, expr.SpearmanCorr} {
			opts := expr.DefaultNetworkOptions()
			opts.Kind = kind
			b.Run(fmt.Sprintf("%s/%dx%d", kind, shape.genes, shape.samples), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if g := expr.BuildNetwork(res.M, opts); g.M() == 0 {
						b.Fatal("empty network")
					}
				}
			})
		}
	}
}

// BenchmarkBuildNetworkBatchedSweep measures the cross-request batching
// economics: one batched pass answering k=4 admission specs versus the
// single-spec pass it generalizes. The acceptance bar is batched(k=4) <
// 1.3× single — the standardization, tiling and candidate prefilter are
// shared, so extra specs only pay per-admitted-pair threshold tests.
func BenchmarkBuildNetworkBatchedSweep(b *testing.B) {
	res, err := expr.Synthesize(expr.SyntheticSpec{
		Genes: 2048, Samples: 64, Modules: 16, ModuleSize: 12, Noise: 0.1, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	base := expr.DefaultNetworkOptions()
	specs := []expr.SweepSpec{
		{MinAbsR: 0.95, MaxP: 0.0005},
		{MinAbsR: 0.90, MaxP: 0.001},
		{MinAbsR: 0.85, MaxP: 0.005},
		{MinAbsR: 0.80, MaxP: 0.01, Negative: true},
	}
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				gs, err := expr.BatchBuildNetworksContext(context.Background(), res.M, base, specs[:k])
				if err != nil {
					b.Fatal(err)
				}
				if gs[0].M() == 0 {
					b.Fatal("empty network")
				}
			}
		})
	}
}

// BenchmarkBuilderAddEdges compares bulk edge staging (the engine's path
// into graph.Builder) against per-edge AddEdge calls.
func BenchmarkBuilderAddEdges(b *testing.B) {
	const n = 1 << 14
	edges := make([]graph.Edge, 1<<18)
	rngState := uint64(99)
	next := func() int32 {
		rngState = rngState*6364136223846793005 + 1442695040888963407
		return int32((rngState >> 33) % n)
	}
	for i := range edges {
		u, v := next(), next()
		if u == v {
			v = (v + 1) % n
		}
		edges[i] = graph.Edge{U: u, V: v}
	}
	b.Run("AddEdge", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bl := graph.NewBuilder(n)
			for _, e := range edges {
				bl.AddEdge(e.U, e.V)
			}
		}
	})
	b.Run("AddEdges", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			bl := graph.NewBuilder(n)
			bl.AddEdges(edges)
		}
	})
}

// BenchmarkAblationOrderings times the sequential chordal filter under each
// vertex ordering on YNG (orderings change the subgraph, not the asymptotics).
func BenchmarkAblationOrderings(b *testing.B) {
	ds := datasets.YNG()
	for _, o := range graph.AllOrderings {
		ord := graph.Order(ds.G, o, ds.Seed)
		b.Run(o.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sampling.Run(sampling.ChordalSeq, ds.G, sampling.Options{Order: ord}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
