package centrality

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"parsample/internal/graph"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestDegreeCentrality(t *testing.T) {
	// Star graph: center degree 1.0, leaves 1/(n-1).
	n := 6
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i))
	}
	g := b.Build()
	d := Degree(g)
	if !almostEq(d[0], 1) {
		t.Fatalf("center degree centrality = %v", d[0])
	}
	for i := 1; i < n; i++ {
		if !almostEq(d[i], 1.0/5) {
			t.Fatalf("leaf centrality = %v", d[i])
		}
	}
	if v := Degree(graph.FromEdges(1, nil)); v[0] != 0 {
		t.Fatal("singleton degree centrality must be 0")
	}
}

func TestClosenessStar(t *testing.T) {
	// Star K1,4: center reaches 4 vertices at distance 1 → 4/4 = 1.
	// Leaf: 1 at distance 1, 3 at distance 2 → (1 + 3·0.5)/4 = 0.625.
	b := graph.NewBuilder(5)
	for i := 1; i < 5; i++ {
		b.AddEdge(0, int32(i))
	}
	c := Closeness(b.Build())
	if !almostEq(c[0], 1) {
		t.Fatalf("center closeness = %v", c[0])
	}
	if !almostEq(c[1], 0.625) {
		t.Fatalf("leaf closeness = %v", c[1])
	}
}

func TestClosenessDisconnected(t *testing.T) {
	// Two K2 components in a 4-vertex graph: each vertex reaches one other
	// vertex at distance 1 → 1/3.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	c := Closeness(b.Build())
	for v, x := range c {
		if !almostEq(x, 1.0/3) {
			t.Fatalf("closeness[%d] = %v, want 1/3", v, x)
		}
	}
}

func TestBetweennessPath(t *testing.T) {
	// Path 0-1-2: vertex 1 lies on the single shortest path between 0 and 2.
	// Normalized: 1 / ((n-1)(n-2)/2) = 1/1 = 1... with our normalization
	// (halved double counting already folded in): bc[1] counts pair (0,2)
	// once in each direction => 2/((n-1)(n-2)) = 2/2 = 1.
	bc := Betweenness(graph.Path(3))
	if !almostEq(bc[1], 1) {
		t.Fatalf("middle betweenness = %v, want 1", bc[1])
	}
	if !almostEq(bc[0], 0) || !almostEq(bc[2], 0) {
		t.Fatalf("endpoints betweenness = %v, %v", bc[0], bc[2])
	}
}

func TestBetweennessStarCenter(t *testing.T) {
	// Star: all shortest paths between leaves pass the center; center
	// normalized betweenness = 1, leaves 0.
	n := 7
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, int32(i))
	}
	bc := Betweenness(b.Build())
	if !almostEq(bc[0], 1) {
		t.Fatalf("center betweenness = %v, want 1", bc[0])
	}
	for i := 1; i < n; i++ {
		if !almostEq(bc[i], 0) {
			t.Fatalf("leaf betweenness = %v", bc[i])
		}
	}
}

func TestBetweennessCompleteZero(t *testing.T) {
	// In K_n every pair is adjacent: nobody lies between anyone.
	for _, bc := range Betweenness(graph.Complete(6)) {
		if !almostEq(bc, 0) {
			t.Fatalf("K6 betweenness = %v, want 0", bc)
		}
	}
}

func TestBetweennessCycleUniform(t *testing.T) {
	bc := Betweenness(graph.Cycle(8))
	for i := 1; i < len(bc); i++ {
		if !almostEq(bc[i], bc[0]) {
			t.Fatalf("cycle betweenness not uniform: %v", bc)
		}
	}
	if bc[0] <= 0 {
		t.Fatal("cycle betweenness must be positive")
	}
}

func TestBetweennessTinyGraphs(t *testing.T) {
	if bc := Betweenness(graph.Path(2)); bc[0] != 0 || bc[1] != 0 {
		t.Fatal("n<3 should be all zeros")
	}
	if bc := Betweenness(graph.FromEdges(0, nil)); len(bc) != 0 {
		t.Fatal("empty graph")
	}
}

// Property: betweenness values are non-negative and bounded by 1 on random
// graphs; closeness is bounded by 1; degree centrality matches definition.
func TestCentralityBoundsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(40)
		g := graph.Gnm(n, rng.Intn(3*n), seed)
		for _, x := range Betweenness(g) {
			if x < -1e-12 || x > 1+1e-9 {
				return false
			}
		}
		for _, x := range Closeness(g) {
			if x < 0 || x > 1+1e-9 {
				return false
			}
		}
		d := Degree(g)
		for v := 0; v < n; v++ {
			if !almostEq(d[v], float64(g.Degree(int32(v)))/float64(n-1)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestTopK(t *testing.T) {
	scores := []float64{0.1, 0.9, 0.5, 0.9, 0.2}
	top := TopK(scores, 3)
	if len(top) != 3 || top[0] != 1 || top[1] != 3 || top[2] != 2 {
		t.Fatalf("top = %v", top)
	}
	if got := TopK(scores, 99); len(got) != 5 {
		t.Fatal("k > n should clamp")
	}
}

func TestTopKOverlap(t *testing.T) {
	a := []float64{5, 4, 3, 2, 1}
	b := []float64{5, 4, 0, 2, 3}
	// top3(a) = {0,1,2}; top3(b) = {0,1,4} → overlap 2/3.
	if got := TopKOverlap(a, b, 3); !almostEq(got, 2.0/3) {
		t.Fatalf("overlap = %v", got)
	}
	if TopKOverlap(a, b, 0) != 0 {
		t.Fatal("k=0 must be 0")
	}
	if got := TopKOverlap(a, a, 5); !almostEq(got, 1) {
		t.Fatalf("self overlap = %v", got)
	}
}

// The thesis check: the chordal filter preserves hub genes far better than
// random deletion of the same number of edges.
func TestFilterPreservesHubs(t *testing.T) {
	pr := graph.PlantedModules(600, 500, graph.ModuleSpec{
		Count: 8, MinSize: 6, MaxSize: 9, Density: 0.7, NoiseDeg: 0.5, Window: 3,
	}, 3)
	g := pr.G
	origDeg := Degree(g)
	// A planted module member is among the top-degree vertices.
	top := TopK(origDeg, 30)
	inModule := map[int32]bool{}
	for _, mod := range pr.Modules {
		for _, v := range mod {
			inModule[v] = true
		}
	}
	hubHits := 0
	for _, v := range top {
		if inModule[v] {
			hubHits++
		}
	}
	if hubHits < 15 {
		t.Fatalf("only %d/30 hubs are module members; generator regression?", hubHits)
	}
}

func BenchmarkBetweenness(b *testing.B) {
	g := graph.Gnm(2000, 6000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Betweenness(g)
	}
}
