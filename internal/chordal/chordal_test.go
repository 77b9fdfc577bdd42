package chordal

import (
	"math/rand"
	"testing"
	"testing/quick"

	"parsample/internal/graph"
)

func natural(g *graph.Graph) []int32 { return graph.NaturalOrder(g.N()) }

// mustMaximal runs MaximalSubgraphContext under the test's context and
// fails the test on an error.
func mustMaximal(tb testing.TB, g *graph.Graph, order []int32) *Result {
	tb.Helper()
	res, err := MaximalSubgraphContext(tb.Context(), g, order)
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

func TestIsChordalBasics(t *testing.T) {
	cases := []struct {
		name string
		g    *graph.Graph
		want bool
	}{
		{"empty", graph.FromEdges(0, nil), true},
		{"singleton", graph.FromEdges(1, nil), true},
		{"edge", graph.Path(2), true},
		{"path", graph.Path(10), true},
		{"triangle", graph.Cycle(3), true},
		{"C4", graph.Cycle(4), false},
		{"C5", graph.Cycle(5), false},
		{"C12", graph.Cycle(12), false},
		{"K5", graph.Complete(5), true},
		{"grid3x3", graph.Grid(3, 3), false},
	}
	for _, c := range cases {
		if got := IsChordal(c.g); got != c.want {
			t.Errorf("IsChordal(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestIsChordalC4PlusChord(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	b.AddEdge(0, 2) // chord
	if !IsChordal(b.Build()) {
		t.Fatal("C4 + chord must be chordal")
	}
}

func TestIsChordalDisconnected(t *testing.T) {
	// Triangle plus isolated vertices plus a path: chordal.
	b := graph.NewBuilder(9)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	if !IsChordal(b.Build()) {
		t.Fatal("disconnected chordal graph rejected")
	}
	// Triangle plus C4: not chordal.
	b = graph.NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	b.AddEdge(5, 6)
	b.AddEdge(6, 3)
	if IsChordal(b.Build()) {
		t.Fatal("graph containing C4 accepted")
	}
}

func TestMCSOrderIsPermutation(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		g := graph.Gnm(60, 140, seed)
		if !graph.IsPermutation(MCSOrder(g), g.N()) {
			t.Fatal("MCS order not a permutation")
		}
	}
}

func TestPEOCheck(t *testing.T) {
	// For a path 0-1-2-3, elimination order 0,1,2,3 is perfect.
	g := graph.Path(4)
	if !IsPerfectEliminationOrdering(g, []int32{0, 1, 2, 3}) {
		t.Fatal("path natural order should be a PEO")
	}
	// For C4, no order is perfect; spot check a couple.
	c4 := graph.Cycle(4)
	if IsPerfectEliminationOrdering(c4, []int32{0, 1, 2, 3}) {
		t.Fatal("C4 cannot have a PEO")
	}
	if IsPerfectEliminationOrdering(c4, []int32{2, 0, 1, 3}) {
		t.Fatal("C4 cannot have a PEO")
	}
	// Bad permutation rejected.
	if IsPerfectEliminationOrdering(g, []int32{0, 0, 1, 2}) {
		t.Fatal("invalid permutation accepted")
	}
}

func TestMaximalSubgraphOnChordalInput(t *testing.T) {
	// A chordal input must be returned whole.
	inputs := []*graph.Graph{
		graph.Path(20),
		graph.Complete(8),
		graph.Cycle(3),
	}
	for _, g := range inputs {
		res := mustMaximal(t, g, natural(g))
		if len(res.Edges) != g.M() {
			t.Fatalf("chordal input lost edges: got %d, want %d", len(res.Edges), g.M())
		}
	}
}

func TestMaximalSubgraphCycle(t *testing.T) {
	// MCS of C_n keeps exactly n-1 edges (spanning path; any chord is absent
	// in the original so the cycle must be cut once).
	for _, n := range []int{4, 5, 8, 13} {
		g := graph.Cycle(n)
		res := mustMaximal(t, g, natural(g))
		if len(res.Edges) != n-1 {
			t.Fatalf("C%d: chordal subgraph has %d edges, want %d", n, len(res.Edges), n-1)
		}
		if !IsChordal(graph.FromEdges(n, res.Edges)) {
			t.Fatalf("C%d: result not chordal", n)
		}
	}
}

func TestMaximalSubgraphAlwaysChordal(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := graph.Gnm(80, 240, seed)
		res := mustMaximal(t, g, natural(g))
		sub := graph.FromEdges(g.N(), res.Edges)
		if !IsChordal(sub) {
			t.Fatalf("seed %d: result not chordal", seed)
		}
		// Subgraph edges must all exist in g.
		sub.ForEachEdge(func(u, v int32) {
			if !g.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) not in original graph", u, v)
			}
		})
	}
}

func TestMaximalSubgraphIsMaximal(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := graph.Gnm(25, 70, seed)
		res := mustMaximal(t, g, natural(g))
		sub := graph.FromEdges(g.N(), res.Edges)
		if !IsMaximalChordalSubgraph(g, sub) {
			t.Fatalf("seed %d: subgraph not maximal", seed)
		}
	}
}

func TestMaximalSubgraphVisitOrderPEO(t *testing.T) {
	g := graph.Gnm(60, 200, 3)
	res := mustMaximal(t, g, natural(g))
	sub := graph.FromEdges(g.N(), res.Edges)
	// Reverse of visit order is a PEO of the subgraph.
	rev := make([]int32, len(res.VisitOrder))
	for i, v := range res.VisitOrder {
		rev[len(rev)-1-i] = v
	}
	if !IsPerfectEliminationOrdering(sub, rev) {
		t.Fatal("reverse visit order is not a PEO of the subgraph")
	}
}

func TestMaximalSubgraphOrderSensitivity(t *testing.T) {
	// Different orderings may give different subgraphs, but all chordal and
	// all with the same vertex set.
	g := graph.Gnm(100, 400, 11)
	sizes := map[string]int{}
	for _, o := range graph.AllOrderings {
		ord := graph.Order(g, o, 0)
		res := mustMaximal(t, g, ord)
		if !IsChordal(graph.FromEdges(g.N(), res.Edges)) {
			t.Fatalf("%v: not chordal", o)
		}
		sizes[o.String()] = len(res.Edges)
	}
	t.Logf("sizes by ordering: %v", sizes)
}

func TestMaximalSubgraphEmptyAndTiny(t *testing.T) {
	g := graph.FromEdges(0, nil)
	if res := mustMaximal(t, g, nil); len(res.Edges) != 0 {
		t.Fatal("empty graph should give empty subgraph")
	}
	g1 := graph.FromEdges(3, nil) // no edges
	res := mustMaximal(t, g1, natural(g1))
	if len(res.Edges) != 0 || len(res.VisitOrder) != 3 {
		t.Fatal("edgeless graph mishandled")
	}
}

func TestMaximalSubgraphPreservesCliques(t *testing.T) {
	// Plant a K6 inside a sparse noisy graph; the chordal filter must retain
	// every clique edge (a complete graph is chordal, and DSW grows cliques).
	pr := graph.PlantedModules(200, 150, graph.ModuleSpec{
		Count: 1, MinSize: 6, MaxSize: 6, Density: 1.0, NoiseDeg: 1,
	}, 5)
	g := pr.G
	mod := pr.Modules[0]
	sub := graph.FromEdges(g.N(), mustMaximal(t, g, natural(g)).Edges)
	missing := 0
	for i := 0; i < len(mod); i++ {
		for j := i + 1; j < len(mod); j++ {
			if !sub.HasEdge(mod[i], mod[j]) {
				missing++
			}
		}
	}
	// The clique itself is chordal; DSW retains the bulk of it. Perfect
	// retention is not guaranteed once noise edges interleave, but losing
	// more than a third of the clique edges indicates a broken filter.
	if missing > len(mod)*(len(mod)-1)/2/3 {
		t.Fatalf("lost %d clique edges", missing)
	}
}

// Property-based: on arbitrary random graphs (varying density), the result is
// always a chordal subgraph of the input.
func TestMaximalSubgraphQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		m := rng.Intn(n * (n - 1) / 2)
		g := graph.Gnm(n, m, seed)
		ord := graph.Order(g, graph.RandomOrder, seed+1)
		res := mustMaximal(t, g, ord)
		sub := graph.FromEdges(n, res.Edges)
		if !IsChordal(sub) {
			return false
		}
		ok := true
		sub.ForEachEdge(func(u, v int32) {
			if !g.HasEdge(u, v) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property-based: maximality on small graphs under random orderings.
func TestMaximalityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(12)
		m := rng.Intn(n*(n-1)/2 + 1)
		g := graph.Gnm(n, m, seed)
		ord := graph.Order(g, graph.RandomOrder, seed+7)
		res := mustMaximal(t, g, ord)
		return IsMaximalChordalSubgraph(g, graph.FromEdges(n, res.Edges))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestOpsCounterPositive(t *testing.T) {
	g := graph.Gnm(50, 150, 2)
	res := mustMaximal(t, g, natural(g))
	if res.Ops <= 0 {
		t.Fatal("ops counter should be positive for non-trivial input")
	}
}

func BenchmarkMaximalSubgraphGnm(b *testing.B) {
	g := graph.Gnm(5000, 15000, 1)
	ord := natural(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustMaximal(b, g, ord)
	}
}

func BenchmarkIsChordal(b *testing.B) {
	g := graph.FromEdges(5000, mustMaximal(b, graph.Gnm(5000, 15000, 1), graph.NaturalOrder(5000)).Edges)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !IsChordal(g) {
			b.Fatal("not chordal")
		}
	}
}

func TestFillInCountChordalZero(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(15), graph.Complete(7), graph.Cycle(3), graph.FromEdges(0, nil),
	} {
		if f := FillInCount(g); f != 0 {
			t.Fatalf("chordal graph fill-in = %d, want 0", f)
		}
	}
}

func TestFillInCountCycles(t *testing.T) {
	// C4 needs exactly 1 chord; longer cycles need more.
	if f := FillInCount(graph.Cycle(4)); f != 1 {
		t.Fatalf("C4 fill-in = %d, want 1", f)
	}
	if f := FillInCount(graph.Cycle(10)); f < 5 {
		t.Fatalf("C10 fill-in = %d, want >= 5 (n-3 chords + fill)", f)
	}
	// Fill-in grows with grid size (many chordless C4s).
	small := FillInCount(graph.Grid(3, 3))
	big := FillInCount(graph.Grid(5, 5))
	if small <= 0 || big <= small {
		t.Fatalf("grid fill-ins: 3x3=%d 5x5=%d", small, big)
	}
}

func TestFillInZeroIffChordalQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(25)
		g := graph.Gnm(n, rng.Intn(3*n), seed)
		return (FillInCount(g) == 0) == IsChordal(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// The DSW filter output always has zero fill-in; a quasi-chordal parallel
// result has small fill-in relative to the original network.
func TestFillInOfFilterOutput(t *testing.T) {
	g := graph.Gnm(200, 700, 3)
	sub := graph.FromEdges(200, mustMaximal(t, g, graph.NaturalOrder(200)).Edges)
	if FillInCount(sub) != 0 {
		t.Fatal("sequential chordal output must have zero fill-in")
	}
	if FillInCount(g) == 0 {
		t.Fatal("dense random graph should not be chordal")
	}
}

// Dense inputs must satisfy the same chordality + maximality invariants
// as sparse ones.
func TestDensePathInvariants(t *testing.T) {
	g := graph.Gnm(120, 5000, 11) // mean degree 83
	res := mustMaximal(t, g, natural(g))
	sub := graph.FromEdges(g.N(), res.Edges)
	if !IsChordal(sub) {
		t.Fatal("dense input produced a non-chordal subgraph")
	}
	if !IsMaximalChordalSubgraph(g, sub) {
		t.Fatal("dense input result not maximal")
	}
}
