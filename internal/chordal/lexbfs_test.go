package chordal

import (
	"math/rand"
	"testing"
	"testing/quick"

	"parsample/internal/graph"
)

func TestLexBFSOrderIsPermutation(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := graph.Gnm(70, 180, seed)
		if !graph.IsPermutation(LexBFSOrder(g), g.N()) {
			t.Fatalf("seed %d: LexBFS order not a permutation", seed)
		}
	}
	if len(LexBFSOrder(graph.FromEdges(0, nil))) != 0 {
		t.Fatal("empty graph should give empty order")
	}
}

func TestLexBFSHandlesDisconnected(t *testing.T) {
	b := graph.NewBuilder(8)
	b.AddEdge(0, 1)
	b.AddEdge(3, 4)
	// 2, 5, 6, 7 isolated
	g := b.Build()
	if !graph.IsPermutation(LexBFSOrder(g), 8) {
		t.Fatal("disconnected LexBFS not a permutation")
	}
}

func TestIsChordalLexBFSBasics(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"path", graph.Path(10), true},
		{"triangle", graph.Cycle(3), true},
		{"C4", graph.Cycle(4), false},
		{"C7", graph.Cycle(7), false},
		{"K6", graph.Complete(6), true},
		{"grid", graph.Grid(3, 4), false},
	}
	for _, c := range cases {
		if got := IsChordalLexBFS(c.g); got != c.want {
			t.Errorf("IsChordalLexBFS(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

// Property: LexBFS-based and MCS-based chordality tests always agree, on
// random graphs and on chordal subgraphs produced by the DSW filter.
func TestLexBFSAgreesWithMCSQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		g := graph.Gnm(n, rng.Intn(3*n+1), seed)
		if IsChordal(g) != IsChordalLexBFS(g) {
			return false
		}
		sub := graph.FromEdges(n, MaximalSubgraph(g, graph.NaturalOrder(n)).Edges)
		return IsChordalLexBFS(sub)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// On a chordal graph, the first visited vertex's perspective: LexBFS visits
// vertices so that the reverse is a PEO; verify explicitly on a known
// chordal graph (a tree plus triangles).
func TestLexBFSPEOOnChordal(t *testing.T) {
	b := graph.NewBuilder(7)
	edges := [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}, {3, 5}, {5, 6}}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	if !IsChordal(g) {
		t.Fatal("test graph should be chordal")
	}
	order := LexBFSOrder(g)
	if !IsPerfectEliminationOrdering(g, reversed(order)) {
		t.Fatal("reverse LexBFS order is not a PEO on a chordal graph")
	}
}

func BenchmarkLexBFS(b *testing.B) {
	g := graph.Gnm(5000, 15000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		LexBFSOrder(g)
	}
}
