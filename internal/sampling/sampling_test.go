package sampling

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"parsample/internal/chordal"
	"parsample/internal/comm"
	"parsample/internal/graph"
)

func mustRun(t *testing.T, alg Algorithm, g *graph.Graph, opts Options) *Result {
	t.Helper()
	res, err := Run(alg, g, opts)
	if err != nil {
		t.Fatalf("Run(%v): %v", alg, err)
	}
	return res
}

func TestRunRejectsBadOrder(t *testing.T) {
	g := graph.Path(4)
	if _, err := Run(ChordalSeq, g, Options{Order: []int32{0, 0, 1, 2}}); err == nil {
		t.Fatal("want error for invalid order")
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	if _, err := Run(Algorithm(42), graph.Path(3), Options{}); err == nil {
		t.Fatal("want error for unknown algorithm")
	}
	if Algorithm(42).String() == "" {
		t.Fatal("unknown algorithm should stringify")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	for a, s := range map[Algorithm]string{
		ChordalSeq: "chordal-seq", ChordalComm: "chordal-comm",
		ChordalNoComm: "chordal-nocomm", RandomWalkSeq: "randomwalk-seq",
		RandomWalkPar: "randomwalk-par",
	} {
		if a.String() != s {
			t.Fatalf("%d: got %q want %q", int(a), a.String(), s)
		}
	}
}

func TestChordalSeqMatchesChordalPackage(t *testing.T) {
	g := graph.Gnm(120, 400, 3)
	ord := graph.Order(g, graph.HighDegree, 0)
	res := mustRun(t, ChordalSeq, g, Options{Order: ord})
	want := chordal.MaximalSubgraph(g, ord)
	if res.Subgraph.M() != len(want.Edges) {
		t.Fatalf("got %d edges, want %d", res.Subgraph.M(), len(want.Edges))
	}
	if !chordal.IsChordal(res.Graph(g.N())) {
		t.Fatal("sequential result not chordal")
	}
}

func TestNoCommSubsetOfOriginal(t *testing.T) {
	g := graph.Gnm(200, 700, 9)
	for _, p := range []int{1, 2, 4, 8} {
		res := mustRun(t, ChordalNoComm, g, Options{P: p})
		res.Subgraph.ForEachEdge(func(u, v int32) {
			if !g.HasEdge(u, v) {
				t.Fatalf("P=%d: edge (%d,%d) not in original", p, u, v)
			}
		})
	}
}

func TestNoCommOneProcessorEqualsSequential(t *testing.T) {
	g := graph.Gnm(150, 500, 4)
	seqr := mustRun(t, ChordalSeq, g, Options{})
	par := mustRun(t, ChordalNoComm, g, Options{P: 1})
	if par.Subgraph.M() != seqr.Subgraph.M() {
		t.Fatalf("P=1 nocomm %d edges, sequential %d", par.Subgraph.M(), seqr.Subgraph.M())
	}
	seqr.Subgraph.ForEachEdge(func(u, v int32) {
		if !par.Subgraph.HasEdge(u, v) {
			t.Fatal("P=1 nocomm differs from sequential")
		}
	})
	if par.BorderEdges != 0 {
		t.Fatalf("P=1 should have 0 border edges, got %d", par.BorderEdges)
	}
}

func TestNoCommPartitionInteriorsChordal(t *testing.T) {
	// The subgraph restricted to any single partition must be chordal:
	// only border edges may create large cycles (quasi-chordal property).
	g := graph.Gnm(300, 900, 13)
	ord := graph.NaturalOrder(g.N())
	for _, p := range []int{2, 4, 8} {
		res := mustRun(t, ChordalNoComm, g, Options{Order: ord, P: p})
		sub := res.Graph(g.N())
		pt := graph.BlockPartition(ord, p)
		for r := 0; r < p; r++ {
			interior := sub.Subgraph(pt.Parts[r])
			if !chordal.IsChordal(interior) {
				t.Fatalf("P=%d rank %d: interior not chordal", p, r)
			}
		}
	}
}

func TestNoCommBorderTriangleRule(t *testing.T) {
	// Hand-built example mirroring Figure 1: two partitions; a border pair
	// is admitted only when the within-partition closing edge is chordal.
	//
	// Partition 0 = {0,1,2}, partition 1 = {3,4,5}.
	// Internal: (0,1),(1,2),(0,2) triangle in part 0; (3,4) in part 1.
	// Border: (0,3),(1,3) -> closing edge (0,1) is chordal => admitted.
	// Border: (2,4),(2,5) -> closing edge (4,5) absent => not admitted via 5;
	// but on part-1 side pair ((4,?),(5,?)) shares external 2, closing edge
	// (4,5) not present, so (2,5) admitted only if paired with an edge whose
	// closing edge exists.
	b := graph.NewBuilder(6)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {3, 4}, {0, 3}, {1, 3}, {2, 4}, {2, 5}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	res := mustRun(t, ChordalNoComm, g, Options{P: 2})
	if !res.Subgraph.HasEdge(0, 3) || !res.Subgraph.HasEdge(1, 3) {
		t.Fatal("border pair with chordal closing edge should be admitted")
	}
	if res.Subgraph.HasEdge(2, 5) {
		t.Fatal("border edge without a closing triangle was admitted")
	}
}

func TestCommMatchesSequentialAtP1(t *testing.T) {
	g := graph.Gnm(100, 300, 5)
	seqr := mustRun(t, ChordalSeq, g, Options{})
	com := mustRun(t, ChordalComm, g, Options{P: 1})
	if com.Subgraph.M() != seqr.Subgraph.M() {
		t.Fatalf("P=1 comm %d edges, sequential %d", com.Subgraph.M(), seqr.Subgraph.M())
	}
	if com.Stats.Messages != 0 {
		t.Fatalf("P=1 should send no messages, sent %d", com.Stats.Messages)
	}
}

func TestCommProducesMessagesAndChordalParts(t *testing.T) {
	g := graph.Gnm(200, 800, 6)
	res := mustRun(t, ChordalComm, g, Options{P: 4})
	if res.Stats.Messages == 0 {
		t.Fatal("expected messages with P=4")
	}
	if res.Stats.Bytes == 0 {
		t.Fatal("expected nonzero bytes")
	}
	// Result is a subgraph of the input.
	res.Graph(g.N()).ForEachEdge(func(u, v int32) {
		if !g.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) not in original", u, v)
		}
	})
}

func TestCommKeepsMoreOrEqualBorderStructure(t *testing.T) {
	// Both parallel chordal variants must retain all internal chordal edges;
	// they differ only in border admission. Sanity: each keeps at least the
	// union of per-partition chordal subgraphs.
	g := graph.Gnm(150, 600, 8)
	ord := graph.NaturalOrder(g.N())
	p := 4
	pt := graph.BlockPartition(ord, p)
	baseline := 0
	for r := 0; r < p; r++ {
		sub, _ := g.CompactSubgraph(pt.Parts[r])
		cr := chordal.MaximalSubgraph(sub, graph.NaturalOrder(sub.N()))
		baseline += len(cr.Edges)
	}
	for _, alg := range []Algorithm{ChordalComm, ChordalNoComm} {
		res := mustRun(t, alg, g, Options{Order: ord, P: p})
		if res.Subgraph.M() < baseline {
			t.Fatalf("%v: %d edges < internal baseline %d", alg, res.Subgraph.M(), baseline)
		}
	}
}

func TestMoreProcessorsFewerEdges(t *testing.T) {
	// H0c: increasing the number of processors yields fewer retained edges
	// (more edges become border edges and face the stricter admission).
	g := graph.Gnm(400, 1600, 21)
	prev := -1
	for _, p := range []int{1, 8, 64} {
		res := mustRun(t, ChordalNoComm, g, Options{P: p})
		if prev >= 0 && res.Subgraph.M() > prev+prev/10 {
			t.Fatalf("P=%d retained %d edges, noticeably more than %d at smaller P", p, res.Subgraph.M(), prev)
		}
		prev = res.Subgraph.M()
	}
}

func TestRandomWalkSelectsAboutHalf(t *testing.T) {
	g := graph.Gnm(300, 1200, 2)
	res := mustRun(t, RandomWalkSeq, g, Options{Seed: 1})
	if res.Subgraph.M() == 0 {
		t.Fatal("random walk selected nothing")
	}
	// With E/2 selections and repeats, unique edges < E/2.
	if res.Subgraph.M() > g.M()/2 {
		t.Fatalf("random walk kept %d > M/2 = %d", res.Subgraph.M(), g.M()/2)
	}
	res.Subgraph.ForEachEdge(func(u, v int32) {
		if !g.HasEdge(u, v) {
			t.Fatal("walk selected non-existent edge")
		}
	})
}

func TestRandomWalkDeterministicPerSeed(t *testing.T) {
	g := graph.Gnm(100, 400, 3)
	a := mustRun(t, RandomWalkSeq, g, Options{Seed: 7})
	b := mustRun(t, RandomWalkSeq, g, Options{Seed: 7})
	if a.Subgraph.M() != b.Subgraph.M() {
		t.Fatal("same seed, different result")
	}
	a.Subgraph.ForEachEdge(func(u, v int32) {
		if !b.Subgraph.HasEdge(u, v) {
			t.Fatal("same seed, different edges")
		}
	})
	c := mustRun(t, RandomWalkSeq, g, Options{Seed: 8})
	same := c.Subgraph.M() == a.Subgraph.M()
	if same {
		a.Subgraph.ForEachEdge(func(u, v int32) {
			if !c.Subgraph.HasEdge(u, v) {
				same = false
			}
		})
	}
	if same {
		t.Fatal("different seeds gave identical walks (suspicious)")
	}
}

func TestRandomWalkParallelNoMessages(t *testing.T) {
	g := graph.Gnm(300, 1000, 4)
	res := mustRun(t, RandomWalkPar, g, Options{P: 8, Seed: 5})
	if res.Stats.Messages != 0 {
		t.Fatal("parallel random walk must be communication free")
	}
	res.Subgraph.ForEachEdge(func(u, v int32) {
		if !g.HasEdge(u, v) {
			t.Fatal("selected non-existent edge")
		}
	})
}

func TestRandomWalkParallelBorderCoinConsistent(t *testing.T) {
	// Border decisions are hash-based, so duplicates across ranks agree and
	// the merged set contains a border edge either once or never.
	g := graph.Gnm(200, 800, 11)
	ord := graph.NaturalOrder(g.N())
	res := mustRun(t, RandomWalkPar, g, Options{Order: ord, P: 4, Seed: 9})
	pt := graph.BlockPartition(ord, 4)
	admitted, rejected := 0, 0
	for _, e := range pt.BorderEdges(g) {
		if res.Subgraph.HasEdge(e.U, e.V) {
			admitted++
		} else {
			rejected++
		}
	}
	if admitted == 0 || rejected == 0 {
		t.Fatalf("border coin flips degenerate: admitted=%d rejected=%d", admitted, rejected)
	}
}

func TestEdgeCoinFair(t *testing.T) {
	heads := 0
	n := 10000
	for i := 0; i < n; i++ {
		if edgeCoin(int32(i), int32(i+1), 42) {
			heads++
		}
	}
	if heads < n*4/10 || heads > n*6/10 {
		t.Fatalf("coin badly biased: %d/%d heads", heads, n)
	}
}

func TestDuplicateBorderEdgesCounted(t *testing.T) {
	// With multiple partitions, the same border edge can be admitted by both
	// sides in the no-comm variant; duplicates must be detected.
	g := graph.PlantedModules(300, 250, graph.ModuleSpec{
		Count: 6, MinSize: 8, MaxSize: 10, Density: 0.95, NoiseDeg: 1,
	}, 7).G
	res := mustRun(t, ChordalNoComm, g, Options{P: 6})
	if res.DuplicateBorderEdges < 0 {
		t.Fatal("negative duplicate count")
	}
	// Stats wired through.
	if res.Stats.P != 6 || len(res.Stats.RankOps) != 6 {
		t.Fatalf("stats P=%d ranks=%d", res.Stats.P, len(res.Stats.RankOps))
	}
	if res.Stats.MaxRankOps() <= 0 || res.Stats.TotalOps() < res.Stats.MaxRankOps() {
		t.Fatal("rank op accounting broken")
	}
}

// Property: the no-comm filter never loses internal chordal structure and is
// always a subgraph of the input, for arbitrary seeds and partition counts.
func TestNoCommQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(80)
		m := rng.Intn(3*n + 1)
		p := 1 + rng.Intn(6)
		g := graph.Gnm(n, m, seed)
		res, err := Run(ChordalNoComm, g, Options{P: p, Seed: seed})
		if err != nil {
			return false
		}
		ok := true
		res.Subgraph.ForEachEdge(func(u, v int32) {
			if !g.HasEdge(u, v) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: the comm variant's accepted subgraph restricted to any single
// receiver partition plus its accepted border endpoints stays chordal.
func TestCommQuickChordalSubsets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		m := rng.Intn(3 * n)
		p := 2 + rng.Intn(3)
		g := graph.Gnm(n, m, seed)
		res, err := Run(ChordalComm, g, Options{P: p})
		if err != nil {
			return false
		}
		ok := true
		res.Subgraph.ForEachEdge(func(u, v int32) {
			if !g.HasEdge(u, v) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// mergeRanks merges partial results over an n-vertex universe with no
// input edges to share, for the merge tests that build rank lists by hand.
func mergeRanks(alg Algorithm, n int, parts []rankResult, border int, cm comm.Comm) (*Result, error) {
	return mergeParts(alg, graph.NewBuilder(n).Build(), parts, border, cm)
}

// cliquesGraph is n vertices in consecutive disjoint cliques of 3 to 8
// vertices, the shape of a planted-module correlation network: chordal,
// and every parallel chordal filter keeps all of it at any P, cliques that
// straddle a block border included.
func cliquesGraph(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for lo := 0; lo < n; {
		hi := min(lo+3+rng.Intn(6), n)
		for u := lo; u < hi; u++ {
			for v := u + 1; v < hi; v++ {
				b.AddEdge(int32(u), int32(v))
			}
		}
		lo = hi
	}
	return b.Build()
}

// A filter that keeps every edge returns its input graph itself, not a
// second CSR; one that drops an edge returns a distinct graph whose CSR is
// the Builder's over the kept edges.
func TestFullKeepSharesInputGraph(t *testing.T) {
	csrEqual := func(a, b *graph.Graph) bool {
		ao, an := a.CSR()
		bo, bn := b.CSR()
		return slices.Equal(ao, bo) && slices.Equal(an, bn)
	}
	chordalG := cliquesGraph(300, 4)
	if !chordal.IsChordal(chordalG) {
		t.Fatal("test graph is not chordal")
	}
	wantCSR := graph.FromEdges(chordalG.N(), chordalG.Edges())
	check := func(alg Algorithm, p int) {
		res := mustRun(t, alg, chordalG, Options{P: p})
		if res.Subgraph != chordalG || !csrEqual(res.Subgraph, wantCSR) {
			t.Fatalf("%v P=%d on a chordal graph: kept %d of %d edges in a separate graph", alg, p, res.Subgraph.M(), chordalG.M())
		}
	}
	check(ChordalSeq, 1)
	for _, alg := range []Algorithm{ChordalNoComm, ChordalComm} {
		for _, p := range []int{1, 2, 4, 8} {
			check(alg, p)
		}
	}

	g := graph.Gnm(300, 1500, 9)
	seq := mustRun(t, ChordalSeq, g, Options{})
	want := graph.FromEdges(g.N(), chordal.MaximalSubgraph(g, graph.NaturalOrder(g.N())).Edges)
	if seq.Subgraph == g || seq.Subgraph.M() >= g.M() || !csrEqual(seq.Subgraph, want) {
		t.Fatalf("chordal-seq on a non-chordal graph: %d of %d edges, CSR equal to the Builder's: %v",
			seq.Subgraph.M(), g.M(), csrEqual(seq.Subgraph, want))
	}
	for _, alg := range []Algorithm{ChordalNoComm, ChordalComm, RandomWalkSeq, ForestFirePar} {
		res := mustRun(t, alg, g, Options{P: 4})
		if res.Subgraph == g || res.Subgraph.M() >= g.M() || !csrEqual(res.Subgraph, graph.FromEdges(g.N(), res.Subgraph.Edges())) {
			t.Fatalf("%v on a non-chordal graph: kept %d of %d edges, shared %v", alg, res.Subgraph.M(), g.M(), res.Subgraph == g)
		}
	}
}
