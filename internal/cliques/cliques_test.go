package cliques

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"parsample/internal/chordal"
	"parsample/internal/graph"
)

// mustChordalSubgraph is the DSW maximal chordal subgraph of g under the
// natural order; it fails the test on an error.
func mustChordalSubgraph(t *testing.T, g *graph.Graph) *graph.Graph {
	t.Helper()
	res, err := chordal.MaximalSubgraphContext(t.Context(), g, graph.NaturalOrder(g.N()))
	if err != nil {
		t.Fatal(err)
	}
	return graph.FromEdges(g.N(), res.Edges)
}

func TestMaximalCliquesKn(t *testing.T) {
	cs := MaximalCliques(graph.Complete(5), 0)
	if len(cs) != 1 || len(cs[0]) != 5 {
		t.Fatalf("K5 cliques = %v", cs)
	}
}

func TestMaximalCliquesPath(t *testing.T) {
	// Path: every edge is a maximal clique.
	cs := MaximalCliques(graph.Path(5), 0)
	if len(cs) != 4 {
		t.Fatalf("path cliques = %d, want 4", len(cs))
	}
	for _, c := range cs {
		if len(c) != 2 {
			t.Fatalf("path clique size %d", len(c))
		}
	}
}

func TestMaximalCliquesTriangleWithTail(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	cs := MaximalCliques(b.Build(), 0)
	want := [][]int32{{0, 1, 2}, {2, 3}, {3, 4}}
	if !reflect.DeepEqual(cs, want) {
		t.Fatalf("cliques = %v, want %v", cs, want)
	}
}

func TestMaximalCliquesCap(t *testing.T) {
	cs := MaximalCliques(graph.Path(50), 3)
	if len(cs) != 3 {
		t.Fatalf("cap ignored: %d cliques", len(cs))
	}
}

func TestMaximalCliquesEmpty(t *testing.T) {
	if cs := MaximalCliques(graph.FromEdges(0, nil), 0); len(cs) != 0 {
		t.Fatal("empty graph should have no cliques")
	}
	// Isolated vertices are maximal cliques of size 1.
	cs := MaximalCliques(graph.FromEdges(3, nil), 0)
	if len(cs) != 3 {
		t.Fatalf("3 isolated vertices should give 3 singleton cliques, got %d", len(cs))
	}
}

func TestChordalMaximalCliquesRejectsNonChordal(t *testing.T) {
	if cs := ChordalMaximalCliques(graph.Cycle(5)); cs != nil {
		t.Fatal("non-chordal input should return nil")
	}
}

func TestChordalMaximalCliquesTree(t *testing.T) {
	// A tree's maximal cliques are its edges.
	cs := ChordalMaximalCliques(graph.Path(6))
	if len(cs) != 5 {
		t.Fatalf("path cliques = %d, want 5", len(cs))
	}
}

func TestChordalAgreesWithBKQuick(t *testing.T) {
	// On chordal graphs (outputs of the DSW filter), both enumerators find
	// the same maximal clique set.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(25)
		m := rng.Intn(3 * n)
		g := graph.Gnm(n, m, seed)
		sub := mustChordalSubgraph(t, g)
		a := ChordalMaximalCliques(sub)
		b := MaximalCliques(sub, 0)
		return reflect.DeepEqual(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCliqueCountBoundChordal(t *testing.T) {
	// A chordal graph has at most n maximal cliques.
	for seed := int64(0); seed < 5; seed++ {
		g := graph.Gnm(60, 200, seed)
		sub := mustChordalSubgraph(t, g)
		cs := ChordalMaximalCliques(sub)
		if len(cs) > 60 {
			t.Fatalf("chordal graph with %d > n maximal cliques", len(cs))
		}
	}
}

func TestCliqueRetentionChordalFilterBeatsRandom(t *testing.T) {
	// The design objective: the chordal filter retains (most) cliques;
	// random edge deletion of the same magnitude does not.
	pr := graph.PlantedModules(400, 320, graph.ModuleSpec{
		Count: 6, MinSize: 5, MaxSize: 7, Density: 0.9, NoiseDeg: 0.4, Window: 3,
	}, 9)
	g := pr.G
	sub := mustChordalSubgraph(t, g)
	chordalRet := CliqueRetention(g, sub, 3)

	// Random subgraph with the same edge count.
	rng := rand.New(rand.NewSource(1))
	edges := g.Edges()
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	rnd := graph.FromEdges(g.N(), edges[:sub.M()])
	randomRet := CliqueRetention(g, rnd, 3)

	if chordalRet <= randomRet {
		t.Fatalf("chordal retention %.2f not above random %.2f", chordalRet, randomRet)
	}
	if chordalRet < 0.5 {
		t.Fatalf("chordal filter retained only %.2f of cliques", chordalRet)
	}
}

func TestCliqueRetentionNoCliques(t *testing.T) {
	g := graph.Path(10)
	if r := CliqueRetention(g, g, 5); r != 1 {
		t.Fatalf("no qualifying cliques should give 1, got %v", r)
	}
}

func BenchmarkMaximalCliques(b *testing.B) {
	pr := graph.PlantedModules(1000, 800, graph.ModuleSpec{
		Count: 12, MinSize: 6, MaxSize: 9, Density: 0.8, NoiseDeg: 0.5,
	}, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MaximalCliques(pr.G, 0)
	}
}
