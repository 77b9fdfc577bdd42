package mcode

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"parsample/internal/datasets"
	"parsample/internal/graph"
	"parsample/internal/sampling"
)

// coreNumbers returns the k-core number of every vertex of g through the
// weight pass's peel.
func coreNumbers(g *graph.Graph) []int {
	off, nbr := g.CSR()
	var s peelScratch
	core := s.coreNumbers(off, nbr, g.N())
	out := make([]int, len(core))
	for v, c := range core {
		out[v] = int(c)
	}
	return out
}

// vertexWeights runs the weight pass to completion.
func vertexWeights(g *graph.Graph) []float64 {
	w, _ := vertexWeightsContext(context.Background(), g)
	return w
}

// mustFind runs FindClustersContext under the test's context and fails the
// test on an error.
func mustFind(tb testing.TB, g *graph.Graph, p Params) []Cluster {
	tb.Helper()
	cs, err := FindClustersContext(tb.Context(), g, p)
	if err != nil {
		tb.Fatal(err)
	}
	return cs
}

func TestCoreNumbersBasics(t *testing.T) {
	// K5: all vertices have core 4.
	for _, c := range coreNumbers(graph.Complete(5)) {
		if c != 4 {
			t.Fatalf("K5 core = %d, want 4", c)
		}
	}
	// Path: interior 1-core... actually all vertices of a path are core 1.
	for _, c := range coreNumbers(graph.Path(6)) {
		if c != 1 {
			t.Fatalf("path core = %d, want 1", c)
		}
	}
	// Cycle: all core 2.
	for _, c := range coreNumbers(graph.Cycle(7)) {
		if c != 2 {
			t.Fatalf("cycle core = %d, want 2", c)
		}
	}
	// Isolated vertices are core 0.
	g := graph.FromEdges(3, nil)
	for _, c := range coreNumbers(g) {
		if c != 0 {
			t.Fatalf("isolated core = %d", c)
		}
	}
}

func TestCoreNumbersKiteGraph(t *testing.T) {
	// K4 with a pendant path: K4 vertices core 3, path vertices core 1.
	b := graph.NewBuilder(6)
	for i := int32(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			b.AddEdge(i, j)
		}
	}
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	core := coreNumbers(b.Build())
	want := []int{3, 3, 3, 3, 1, 1}
	for v, w := range want {
		if core[v] != w {
			t.Fatalf("core[%d] = %d, want %d (all %v)", v, core[v], w, core)
		}
	}
}

// Property: core numbers never exceed degree and are monotone under the
// defining property (each vertex has ≥ core(v) neighbors with core ≥ core(v)).
func TestCoreNumbersQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		g := graph.Gnm(n, rng.Intn(3*n), seed)
		core := coreNumbers(g)
		for v := int32(0); int(v) < n; v++ {
			if core[v] > g.Degree(v) {
				return false
			}
			cnt := 0
			for _, u := range g.Neighbors(v) {
				if core[u] >= core[v] {
					cnt++
				}
			}
			if cnt < core[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestVertexWeightsClique(t *testing.T) {
	// In K5, each vertex's neighborhood (plus itself) is K5: core 4,
	// density 1 => weight 4.
	w := vertexWeights(graph.Complete(5))
	for _, v := range w {
		if math.Abs(v-4) > 1e-12 {
			t.Fatalf("K5 weight = %v, want 4", v)
		}
	}
	// Isolated vertex weight 0.
	w0 := vertexWeights(graph.FromEdges(2, nil))
	if w0[0] != 0 || w0[1] != 0 {
		t.Fatal("isolated weight must be 0")
	}
}

func TestVertexWeightsDenseBeatsSparse(t *testing.T) {
	// A clique member must outweigh a path interior vertex.
	b := graph.NewBuilder(10)
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j)
		}
	}
	b.AddEdge(5, 6)
	b.AddEdge(6, 7)
	b.AddEdge(7, 8)
	g := b.Build()
	w := vertexWeights(g)
	if w[0] <= w[6] {
		t.Fatalf("clique weight %v not above path weight %v", w[0], w[6])
	}
}

func TestFindClustersPlantedClique(t *testing.T) {
	// A K6 planted in sparse noise must be found as one cluster.
	pr := graph.PlantedModules(150, 80, graph.ModuleSpec{
		Count: 1, MinSize: 6, MaxSize: 6, Density: 1, NoiseDeg: 0.5,
	}, 4)
	clusters := mustFind(t, pr.G, DefaultParams())
	if len(clusters) == 0 {
		t.Fatal("no clusters found")
	}
	found := clusters[0].NodeSet()
	hit := 0
	for _, v := range pr.Modules[0] {
		if found[v] {
			hit++
		}
	}
	if hit < 5 {
		t.Fatalf("top cluster hit only %d/6 planted vertices", hit)
	}
	if clusters[0].Score < 3 {
		t.Fatalf("clique cluster score %v < 3", clusters[0].Score)
	}
}

func TestFindClustersMultipleModules(t *testing.T) {
	pr := graph.PlantedModules(400, 200, graph.ModuleSpec{
		Count: 5, MinSize: 7, MaxSize: 9, Density: 0.95, NoiseDeg: 0.5,
	}, 9)
	clusters := mustFind(t, pr.G, DefaultParams())
	if len(clusters) < 4 {
		t.Fatalf("found %d clusters, want ≥ 4 of 5 planted", len(clusters))
	}
	// Clusters must be disjoint (MCODE marks used vertices).
	seen := map[int32]bool{}
	for _, c := range clusters {
		for _, v := range c.Vertices {
			if seen[v] {
				t.Fatal("clusters overlap")
			}
			seen[v] = true
		}
	}
	// Sorted by score.
	for i := 1; i < len(clusters); i++ {
		if clusters[i].Score > clusters[i-1].Score {
			t.Fatal("clusters not sorted by score")
		}
	}
}

func TestFindClustersSparseGraphNone(t *testing.T) {
	// A tree has no dense region: no clusters at default thresholds.
	if cs := mustFind(t, graph.Path(50), DefaultParams()); len(cs) != 0 {
		t.Fatalf("path produced %d clusters", len(cs))
	}
}

func TestFindClustersScoreFilter(t *testing.T) {
	// A K4 alone: score = 4·1 = 4 ≥ 3 => kept; with MinScore 5 it is dropped.
	g := graph.Complete(4)
	if cs := mustFind(t, g, Params{MinScore: 3, MinSize: 4}); len(cs) != 1 {
		t.Fatalf("K4 clusters = %d, want 1", len(cs))
	}
	if cs := mustFind(t, g, Params{MinScore: 5, MinSize: 4}); len(cs) != 0 {
		t.Fatalf("K4 with MinScore 5 gave %d clusters", len(cs))
	}
}

func TestHaircutRemovesPendants(t *testing.T) {
	// Triangle with a pendant vertex: haircut strips the pendant.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	members := newSeedLoop(g, make([]float64, g.N()), false).haircut([]int32{0, 1, 2, 3})
	if len(members) != 3 {
		t.Fatalf("haircut left %d vertices, want 3", len(members))
	}
	for _, v := range members {
		if v == 3 {
			t.Fatal("pendant vertex survived haircut")
		}
	}
}

// Once a complex is marked used, regroup must split it off its component:
// the pendant path left behind is a forest again, so its seeds are skipped
// instead of regrown.
func TestRegroupSplitsComponent(t *testing.T) {
	// Triangle 0-1-2 with the path 2-3-4-5 hanging off it.
	b := graph.NewBuilder(6)
	for _, e := range [][2]int32{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {4, 5}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	l := newSeedLoop(g, []float64{1, 1, 1, 1, 1, 1}, true)
	for v := int32(0); v < 6; v++ {
		l.activate(v)
	}
	if l.inForest(0) {
		t.Fatal("component with a triangle reported as a forest")
	}
	grown := l.grow(0, 0.5)
	core := l.haircut(grown)
	if len(core) != 3 {
		t.Fatalf("haircut kept %v, want the triangle", core)
	}
	for _, v := range core {
		l.used[v] = true
	}
	l.regroup(grown)
	for _, v := range core {
		if l.parent[v] >= 0 {
			t.Fatalf("used vertex %d still active", v)
		}
	}
	if !l.inForest(3) {
		t.Fatal("the path left behind is not reported as a forest")
	}
}

func TestClusterEdgeSetAndScore(t *testing.T) {
	g := graph.Complete(5)
	cs := mustFind(t, g, DefaultParams())
	if len(cs) != 1 {
		t.Fatalf("K5 clusters = %d", len(cs))
	}
	c := cs[0]
	if c.Edges != 10 || math.Abs(c.Density-1) > 1e-12 || math.Abs(c.Score-5) > 1e-12 {
		t.Fatalf("K5 cluster: edges=%d density=%v score=%v", c.Edges, c.Density, c.Score)
	}
	if m := g.Subgraph(c.Vertices).M(); m != c.Edges {
		t.Fatalf("induced subgraph has %d edges, cluster reports %d", m, c.Edges)
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.VertexWeightPercentage != 0.2 || !p.Haircut || p.MinScore != 3.0 || p.MinSize != 4 {
		t.Fatalf("unexpected defaults: %+v", p)
	}
}

func BenchmarkFindClusters(b *testing.B) {
	pr := graph.PlantedModules(2000, 1500, graph.ModuleSpec{
		Count: 20, MinSize: 8, MaxSize: 14, Density: 0.9, NoiseDeg: 1,
	}, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mustFind(b, pr.G, DefaultParams())
	}
}

func TestFluffExpandsComplex(t *testing.T) {
	// K5 core with a moderately connected satellite: the satellite has two
	// edges into the clique (dense closed neighborhood), so fluff adds it
	// while the default run does not.
	b := graph.NewBuilder(6)
	for i := int32(0); i < 5; i++ {
		for j := i + 1; j < 5; j++ {
			b.AddEdge(i, j)
		}
	}
	b.AddEdge(5, 0)
	b.AddEdge(5, 1)
	g := b.Build()

	plain := mustFind(t, g, DefaultParams())
	if len(plain) != 1 {
		t.Fatalf("plain clusters = %d", len(plain))
	}
	fluffed := mustFind(t, g, Params{Fluff: true})
	if len(fluffed) != 1 {
		t.Fatalf("fluffed clusters = %d", len(fluffed))
	}
	if len(fluffed[0].Vertices) <= len(plain[0].Vertices) {
		t.Fatalf("fluff did not expand: %d vs %d vertices",
			len(fluffed[0].Vertices), len(plain[0].Vertices))
	}
	has5 := false
	for _, v := range fluffed[0].Vertices {
		if v == 5 {
			has5 = true
		}
	}
	if !has5 {
		t.Fatal("satellite vertex not fluffed in")
	}
}

func TestFluffThresholdDefault(t *testing.T) {
	p := Params{Fluff: true}.withDefaults()
	if p.FluffDensityThreshold != 0.1 {
		t.Fatalf("default fluff threshold = %v", p.FluffDensityThreshold)
	}
	// Explicit threshold survives.
	p = Params{Fluff: true, FluffDensityThreshold: 0.9}.withDefaults()
	if p.FluffDensityThreshold != 0.9 {
		t.Fatal("explicit threshold overridden")
	}
}

func TestFluffVerySTrictThresholdNoChange(t *testing.T) {
	g := graph.Complete(5)
	plain := mustFind(t, g, DefaultParams())
	strict := mustFind(t, g, Params{Fluff: true, FluffDensityThreshold: 1.1})
	if len(plain) != len(strict) || len(plain[0].Vertices) != len(strict[0].Vertices) {
		t.Fatal("impossible threshold changed the result")
	}
}

// ------------------------------------------------- reference implementation
//
// The seed loop and weight kernel as they were before the forest skip, the
// worklist haircut and the per-worker weight scratch: every seed grows its
// complex and haircuts it in rounds, and every vertex weight goes through a
// Localizer-built neighborhood graph, a fresh core peel and a Subgraph of
// the top core. FindClustersContext must reproduce it exactly. (The old scoring also
// had a dense-row AND-popcount path, which counts the same edges.)

func referenceCoreNumbers(g *graph.Graph) []int {
	n := g.N()
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = g.Degree(int32(v))
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	bin := make([]int, maxDeg+2)
	for v := 0; v < n; v++ {
		bin[deg[v]]++
	}
	start := 0
	for d := 0; d <= maxDeg; d++ {
		c := bin[d]
		bin[d] = start
		start += c
	}
	pos := make([]int, n)
	vert := make([]int32, n)
	for v := 0; v < n; v++ {
		pos[v] = bin[deg[v]]
		vert[pos[v]] = int32(v)
		bin[deg[v]]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	core := make([]int, n)
	for i := 0; i < n; i++ {
		v := vert[i]
		core[v] = deg[v]
		for _, u := range g.Neighbors(v) {
			if deg[u] > deg[v] {
				du, pu := deg[u], pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				deg[u]--
			}
		}
	}
	return core
}

func referenceVertexWeights(g *graph.Graph) []float64 {
	w, _ := referenceNeighborhoods(g)
	return w
}

// referenceNeighborhoods returns every vertex's reference weight and the top
// core number of its closed neighborhood (0 for an isolated vertex).
func referenceNeighborhoods(g *graph.Graph) (w []float64, top []int) {
	w, top = make([]float64, g.N()), make([]int, g.N())
	loc := g.NewLocalizer()
	region := make([]int32, 0, g.MaxDegree()+1)
	for v := range w {
		w[v], top[v] = referenceVertexWeight(g, loc, region, int32(v))
	}
	return w, top
}

func referenceVertexWeight(g *graph.Graph, loc *graph.Localizer, region []int32, v int32) (float64, int) {
	nb := g.Neighbors(v)
	if len(nb) == 0 {
		return 0, 0
	}
	region = append(region[:0], v)
	region = append(region, nb...)
	sub, _ := loc.Compact(region)
	cores := referenceCoreNumbers(sub)
	k := 0
	for _, c := range cores {
		if c > k {
			k = c
		}
	}
	if k == 0 {
		return 0, 0
	}
	var keep []int32
	for lv, c := range cores {
		if c == k {
			keep = append(keep, int32(lv))
		}
	}
	coreSub := sub.Subgraph(keep)
	nn := len(keep)
	if nn < 2 {
		return 0, k
	}
	density := 2 * float64(coreSub.M()) / (float64(nn) * float64(nn-1))
	return float64(k) * density, k
}

func referenceFindClusters(g *graph.Graph, p Params) []Cluster {
	return referenceSeedLoop(g, referenceVertexWeights(g), p)
}

// referenceSeedLoop is the reference seed loop over precomputed weights, so
// one weight pass can serve several parameter sets.
func referenceSeedLoop(g *graph.Graph, weights []float64, p Params) []Cluster {
	p = p.withDefaults()
	n := g.N()
	seeds := make([]int32, n)
	for i := range seeds {
		seeds[i] = int32(i)
	}
	sort.SliceStable(seeds, func(i, j int) bool {
		if weights[seeds[i]] != weights[seeds[j]] {
			return weights[seeds[i]] > weights[seeds[j]]
		}
		return seeds[i] < seeds[j]
	})
	used := make([]bool, n)
	loc := g.NewLocalizer()
	in := graph.NewBitset(n)
	var clusters []Cluster
	for _, seed := range seeds {
		if used[seed] || weights[seed] == 0 {
			continue
		}
		threshold := weights[seed] * (1 - p.VertexWeightPercentage)
		members := referenceGrow(g, seed, threshold, weights, used, in)
		if p.Haircut {
			members = referenceHaircut(g, members, in)
		}
		if len(members) == 0 {
			continue
		}
		for _, v := range members {
			used[v] = true
		}
		if p.Fluff {
			members = referenceFluff(g, loc, members, p.FluffDensityThreshold, in)
		}
		c := scoreCluster(g, members, in)
		if len(c.Vertices) >= p.MinSize && c.Score >= p.MinScore {
			c.Seed = seed
			clusters = append(clusters, c)
		}
	}
	sort.SliceStable(clusters, func(i, j int) bool { return clusters[i].Score > clusters[j].Score })
	for i := range clusters {
		clusters[i].ID = i
	}
	return clusters
}

func referenceGrow(g *graph.Graph, seed int32, threshold float64, weights []float64, used []bool, in graph.Bitset) []int32 {
	in.Set(seed)
	members := []int32{seed}
	queue := []int32{seed}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Neighbors(v) {
			if used[u] || in.Has(u) {
				continue
			}
			if weights[u] > threshold {
				in.Set(u)
				members = append(members, u)
				queue = append(queue, u)
			}
		}
	}
	for _, v := range members {
		in.Clear(v)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	return members
}

func referenceHaircut(g *graph.Graph, members []int32, in graph.Bitset) []int32 {
	for _, v := range members {
		in.Set(v)
	}
	for {
		removed := false
		for _, v := range members {
			if !in.Has(v) {
				continue
			}
			deg := 0
			for _, u := range g.Neighbors(v) {
				if in.Has(u) {
					deg++
				}
			}
			if deg < 2 {
				in.Clear(v)
				removed = true
			}
		}
		if !removed {
			break
		}
	}
	out := members[:0]
	for _, v := range members {
		if in.Has(v) {
			out = append(out, v)
		}
		in.Clear(v)
	}
	return out
}

func referenceFluff(g *graph.Graph, loc *graph.Localizer, members []int32, threshold float64, in graph.Bitset) []int32 {
	for _, v := range members {
		in.Set(v)
	}
	out := append([]int32(nil), members...)
	region := make([]int32, 0, g.MaxDegree()+1)
	for _, v := range members {
		for _, u := range g.Neighbors(v) {
			if in.Has(u) {
				continue
			}
			region = append(region[:0], u)
			region = append(region, g.Neighbors(u)...)
			sub, _ := loc.Compact(region)
			nn := sub.N()
			if nn < 2 {
				continue
			}
			density := 2 * float64(sub.M()) / (float64(nn) * float64(nn-1))
			if density > threshold {
				in.Set(u)
				out = append(out, u)
			}
		}
	}
	for _, v := range out {
		in.Clear(v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------- differential checks

// referenceParams covers the defaults, fluff, no haircut, the VWP range
// the forest skip applies to, and out-of-range VWPs that must fall back to
// plain growth (the API rejects them, Params does not).
var referenceParams = []struct {
	name string
	p    Params
}{
	{"default", DefaultParams()},
	{"fluff", Params{VertexWeightPercentage: 0.2, Haircut: true, Fluff: true}},
	{"no-haircut", Params{VertexWeightPercentage: 0.2}},
	{"keep-all", Params{VertexWeightPercentage: 0.2, Haircut: true, MinScore: -1, MinSize: 1}},
	{"vwp=0.05", Params{VertexWeightPercentage: 0.05, Haircut: true}},
	{"vwp=0.5", Params{VertexWeightPercentage: 0.5, Haircut: true}},
	{"vwp=0.95", Params{VertexWeightPercentage: 0.95, Haircut: true}},
	{"vwp=-0.1", Params{VertexWeightPercentage: -0.1, Haircut: true}},
	{"vwp=1.5", Params{VertexWeightPercentage: 1.5, Haircut: true}},
}

// diffClusters describes the first difference between two cluster lists,
// comparing floats bit for bit, or returns "".
func diffClusters(got, want []Cluster) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d clusters, reference %d", len(got), len(want))
	}
	for i := range got {
		a, b := got[i], want[i]
		if a.ID != b.ID || a.Seed != b.Seed || a.Edges != b.Edges || !slices.Equal(a.Vertices, b.Vertices) ||
			math.Float64bits(a.Density) != math.Float64bits(b.Density) ||
			math.Float64bits(a.Score) != math.Float64bits(b.Score) {
			return fmt.Sprintf("cluster %d = %+v, reference %+v", i, a, b)
		}
	}
	return ""
}

// diffWeights describes the first weight that differs in any bit, or "".
func diffWeights(got, want []float64) string {
	for v := range want {
		if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
			return fmt.Sprintf("weight[%d] = %v, reference %v", v, got[v], want[v])
		}
	}
	return ""
}

// diffTriangles describes the first vertex whose triangle test (an edge
// among its neighbors, which picks the closed-form weight) disagrees with
// the reference's top core number of its closed neighborhood, which is at
// least 2 exactly when N[v] holds a triangle, or returns "".
func diffTriangles(g *graph.Graph, top []int) string {
	s := newWeightScratch(g)
	for v := range top {
		if e := s.neighborEdges(int32(v)); (e > 0) != (top[v] >= 2) {
			return fmt.Sprintf("vertex %d: %d edges among its neighbors, reference top core of N[v] = %d", v, e, top[v])
		}
	}
	return ""
}

// fromPairs builds an n-vertex graph with the edges {a, b}.
func fromPairs(n int, edges [][2]int32) *graph.Graph {
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// pendantCycle is a 12-cycle with a 30-vertex path hanging off every other
// cycle vertex: the worklist haircut must peel the long paths and keep the
// cycle.
func pendantCycle() *graph.Graph {
	const ring, tail = 12, 30
	b := graph.NewBuilder(ring + ring/2*tail)
	next := int32(ring)
	for i := int32(0); i < ring; i++ {
		b.AddEdge(i, (i+1)%ring)
		if i%2 == 1 {
			continue
		}
		prev := i
		for j := 0; j < tail; j++ {
			b.AddEdge(prev, next)
			prev, next = next, next+1
		}
	}
	return b.Build()
}

// randomTree attaches every vertex to a uniformly chosen earlier one.
func randomTree(n int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for v := 1; v < n; v++ {
		b.AddEdge(int32(v), int32(rng.Intn(v)))
	}
	return b.Build()
}

// filtered returns ds's network after alg under the given ordering.
func filtered(t testing.TB, ds *datasets.Dataset, o graph.Ordering, alg sampling.Algorithm, p int) *graph.Graph {
	t.Helper()
	res, err := sampling.RunContext(t.Context(), alg, ds.G, sampling.Options{Order: graph.Order(ds.G, o, ds.Seed), P: p, Seed: ds.Seed})
	if err != nil {
		t.Fatal(err)
	}
	return res.Graph(ds.G.N())
}

// paramSets selects the referenceParams a TestFindClustersMatchesReference
// input compares clusters under.
type paramSets int

const (
	weightsOnly paramSets = iota // no cluster comparison
	cheapSets                    // default, no-haircut and vwp=-0.1
	allSets
)

// TestFindClustersMatchesReference compares weights and clusters with the
// reference on filtered dataset networks, generator graphs, forests and
// pendant-heavy graphs. The reference regrows every forest component per
// seed (up to seconds per run on the LD-ordered chordal graphs), so the
// dataset graphs run the defaults plus the two cheap fallback cases, one
// of them (YNG/HD) every parameter set, and the small graphs every
// parameter set. Every sampler's HD output on the four datasets checks
// weights only. On every input the triangle test that picks a vertex's
// closed-form weight must agree with the reference's top core of N[v].
func TestFindClustersMatchesReference(t *testing.T) {
	type input struct {
		name string
		g    func(testing.TB) *graph.Graph
		sets paramSets
	}
	dataset := func(ds func() *datasets.Dataset, o graph.Ordering, alg sampling.Algorithm, p int) func(testing.TB) *graph.Graph {
		return func(t testing.TB) *graph.Graph { return filtered(t, ds(), o, alg, p) }
	}
	var inputs []input
	for _, ds := range []func() *datasets.Dataset{datasets.YNG, datasets.MID} {
		for _, o := range graph.AllOrderings {
			name := ds().Name + "/chordal-seq/" + o.String()
			sets := cheapSets
			if name == "YNG/chordal-seq/HD" {
				sets = allSets
			}
			inputs = append(inputs, input{name, dataset(ds, o, sampling.ChordalSeq, 1), sets})
		}
	}
	for _, ds := range []func() *datasets.Dataset{datasets.YNG, datasets.MID, datasets.UNT, datasets.CRE} {
		for _, alg := range sampling.All {
			p := 1
			switch alg {
			case sampling.ChordalComm, sampling.ChordalNoComm, sampling.RandomWalkPar, sampling.ForestFirePar:
				p = 4
			}
			name := fmt.Sprintf("weights/%s/%v/HD/p%d", ds().Name, alg, p)
			inputs = append(inputs, input{name, dataset(ds, graph.HighDegree, alg, p), weightsOnly})
		}
	}
	constant := func(g *graph.Graph) func(testing.TB) *graph.Graph { return func(testing.TB) *graph.Graph { return g } }
	inputs = append(inputs,
		input{"CRE/chordal-nocomm/HD/p4", dataset(datasets.CRE, graph.HighDegree, sampling.ChordalNoComm, 4), cheapSets},
		input{"gnm", constant(graph.Gnm(400, 1600, 3)), allSets},
		input{"rmat", constant(graph.RMAT(9, 6, 0, 0, 0, 5)), allSets},
		input{"planted", constant(graph.PlantedModules(400, 200, graph.ModuleSpec{
			Count: 5, MinSize: 6, MaxSize: 10, Density: 0.9, NoiseDeg: 0.5,
		}, 9).G), allSets},
		input{"path", constant(graph.Path(300)), allSets},
		input{"tree", constant(randomTree(300, 7)), allSets},
		input{"grid", constant(graph.Grid(12, 15)), allSets},
		input{"K6", constant(graph.Complete(6)), allSets},
		input{"pendant-cycle", constant(pendantCycle()), allSets},
		// The edges of the triangle test. A star centred on 3, so its rows
		// hold ids on both sides of the centre.
		input{"star", constant(fromPairs(7, [][2]int32{{0, 3}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {3, 6}})), allSets},
		// The same star with the chord 1–5: 1, 3 and 5 lie on a triangle,
		// the other leaves keep the closed form.
		input{"star-chord", constant(fromPairs(7, [][2]int32{{0, 3}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {3, 6}, {1, 5}})), allSets},
		// Triangle 0–5–9 with pendants on both sides of 5 and 9: 0's only
		// witness pair (5, 9) lies above it, 9's (0, 5) below it, and each
		// row tail holds an unstamped id before the witness.
		input{"triangle-above", constant(fromPairs(14, [][2]int32{{0, 5}, {0, 9}, {5, 9}, {0, 3}, {1, 5}, {5, 12}, {2, 9}, {9, 13}})), allSets},
		input{"K4-minus-edge", constant(fromPairs(4, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}})), allSets},
		input{"pendant-triangle", constant(fromPairs(4, [][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 3}})), allSets},
	)
	for _, in := range inputs {
		t.Run(in.name, func(t *testing.T) {
			t.Parallel()
			g := in.g(t)
			want, top := referenceNeighborhoods(g)
			if d := diffWeights(vertexWeights(g), want); d != "" {
				t.Fatal(d)
			}
			if d := diffTriangles(g, top); d != "" {
				t.Fatal(d)
			}
			for _, pc := range referenceParams {
				if in.sets == weightsOnly || in.sets == cheapSets && pc.name != "default" && pc.name != "no-haircut" && pc.name != "vwp=-0.1" {
					continue
				}
				if d := diffClusters(mustFind(t, g, pc.p), referenceSeedLoop(g, want, pc.p)); d != "" {
					t.Fatalf("%s: %s", pc.name, d)
				}
			}
		})
	}
}

func TestCoreNumbersMatchesReference(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Gnm(500, 2500, 1), graph.RMAT(9, 8, 0, 0, 0, 2), pendantCycle(), graph.FromEdges(0, nil)} {
		if got, want := coreNumbers(g), referenceCoreNumbers(g); !slices.Equal(got, want) {
			t.Fatalf("core numbers %v, reference %v", got, want)
		}
	}
}

// FindClustersContext never touches the graph it reads: no dense rows appear.
func TestFindClustersLeavesGraphUnmodified(t *testing.T) {
	g := graph.Complete(8)
	mustFind(t, g, DefaultParams())
	if g.Row(0) != nil {
		t.Fatal("FindClustersContext built dense adjacency rows")
	}
}

// fuzzVWPs are the vertex weight percentages a fuzz input can select: the
// default, the forest-skip range, a value so small that 1−VWP rounds to 1,
// and the out-of-range fallbacks.
var fuzzVWPs = [8]float64{0.2, 0.05, 0.5, 0.95, 1e-17, 0.999999, -0.1, 1.5}

// decodeFuzzGraph reads a graph of at most 64 vertices and MCODE params
// from fuzz bytes: byte 0 picks n, byte 1 holds the VWP index (bits 0–2),
// Haircut (bit 3), Fluff (bit 4) and keep-all filters (bit 5); each
// following byte pair is an edge.
func decodeFuzzGraph(data []byte) (*graph.Graph, Params) {
	if len(data) < 2 {
		return graph.FromEdges(0, nil), DefaultParams()
	}
	n, flags := 1+int(data[0])%64, data[1]
	p := Params{
		VertexWeightPercentage: fuzzVWPs[flags&7],
		Haircut:                flags&8 != 0,
		Fluff:                  flags&16 != 0,
	}
	if flags&32 != 0 {
		p.MinScore, p.MinSize = -1, 1
	}
	b := graph.NewBuilder(n)
	for i := 2; i+1 < len(data); i += 2 {
		b.AddEdge(int32(int(data[i])%n), int32(int(data[i+1])%n))
	}
	return b.Build(), p
}

// FuzzFindClustersMatchesReference checks weights and clusters against the
// reference on small graphs; the seed corpus is in
// testdata/fuzz/FuzzFindClustersMatchesReference.
func FuzzFindClustersMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		g, p := decodeFuzzGraph(data)
		if d := diffWeights(vertexWeights(g), referenceVertexWeights(g)); d != "" {
			t.Fatal(d)
		}
		if d := diffClusters(mustFind(t, g, p), referenceFindClusters(g, p)); d != "" {
			t.Fatalf("params %+v: %s", p, d)
		}
	})
}
