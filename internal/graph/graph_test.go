package graph

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderDedup(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	b.AddEdge(1, 1) // self loop dropped
	g := b.Build()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || !g.HasEdge(2, 3) {
		t.Fatal("missing expected edges")
	}
	if g.HasEdge(0, 2) || g.HasEdge(1, 1) {
		t.Fatal("unexpected edge present")
	}
}

func TestBuilderAddEdgesBulk(t *testing.T) {
	// Bulk staging must be indistinguishable from per-edge staging:
	// same dedup, same self-loop skipping, same CSR output.
	edges := []Edge{
		{0, 1}, {1, 0}, {0, 1}, // duplicates both ways
		{2, 3},
		{1, 1}, // self loop dropped
		{3, 4}, {2, 4},
	}
	bulk := NewBuilder(5)
	bulk.AddEdges(edges)
	gBulk := bulk.Build()

	single := NewBuilder(5)
	for _, e := range edges {
		single.AddEdge(e.U, e.V)
	}
	gSingle := single.Build()

	if gBulk.M() != gSingle.M() || gBulk.M() != 4 {
		t.Fatalf("bulk M = %d, single M = %d, want 4", gBulk.M(), gSingle.M())
	}
	for _, e := range gSingle.Edges() {
		if !gBulk.HasEdge(e.U, e.V) {
			t.Fatalf("bulk graph missing edge (%d,%d)", e.U, e.V)
		}
	}
	// Mixing AddEdge and AddEdges stages into the same list.
	mixed := NewBuilder(5)
	mixed.AddEdge(0, 1)
	mixed.AddEdges([]Edge{{2, 3}})
	if g := mixed.Build(); g.M() != 2 {
		t.Fatalf("mixed staging M = %d, want 2", g.M())
	}
	// Empty batch is a no-op.
	empty := NewBuilder(3)
	empty.AddEdges(nil)
	if g := empty.Build(); g.M() != 0 {
		t.Fatal("empty batch added edges")
	}
}

func TestBuilderAddEdgesPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range endpoint in batch")
		}
	}()
	NewBuilder(2).AddEdges([]Edge{{0, 1}, {0, 2}})
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range endpoint")
		}
	}()
	NewBuilder(2).AddEdge(0, 2)
}

func TestEmptyGraph(t *testing.T) {
	g := NewBuilder(0).Build()
	if g.N() != 0 || g.M() != 0 || g.MaxDegree() != 0 {
		t.Fatalf("empty graph: n=%d m=%d maxdeg=%d", g.N(), g.M(), g.MaxDegree())
	}
	if !IsConnected(g) {
		t.Fatal("empty graph should count as connected")
	}
}

func TestHasEdgeBoundary(t *testing.T) {
	g := Path(3)
	if g.HasEdge(-1, 0) || g.HasEdge(0, 5) || g.HasEdge(2, 2) {
		t.Fatal("HasEdge accepted invalid endpoints")
	}
}

func TestDegreesPath(t *testing.T) {
	g := Path(5)
	want := []int{1, 2, 2, 2, 1}
	for v, w := range want {
		if g.Degree(int32(v)) != w {
			t.Fatalf("deg(%d) = %d, want %d", v, g.Degree(int32(v)), w)
		}
	}
	if g.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d, want 2", g.MaxDegree())
	}
}

func TestEdgesRoundTrip(t *testing.T) {
	g := Gnm(50, 120, 1)
	es := g.Edges()
	if len(es) != g.M() {
		t.Fatalf("Edges len = %d, want %d", len(es), g.M())
	}
	g2 := FromEdges(g.N(), es)
	if g2.M() != g.M() {
		t.Fatalf("round trip M = %d, want %d", g2.M(), g.M())
	}
	for _, e := range es {
		if !g2.HasEdge(e.U, e.V) {
			t.Fatalf("missing edge %v after round trip", e)
		}
	}
}

func TestForEachEdgeCountsOnce(t *testing.T) {
	g := Complete(6)
	n := 0
	g.ForEachEdge(func(u, v int32) {
		if u >= v {
			t.Fatalf("ForEachEdge gave u=%d >= v=%d", u, v)
		}
		n++
	})
	if n != 15 {
		t.Fatalf("visited %d edges, want 15", n)
	}
}

func TestSubgraph(t *testing.T) {
	g := Complete(5)
	sub := g.Subgraph([]int32{0, 1, 2})
	if sub.M() != 3 {
		t.Fatalf("induced K3 has %d edges, want 3", sub.M())
	}
	if sub.N() != 5 {
		t.Fatalf("Subgraph should keep the vertex universe, got n=%d", sub.N())
	}
	if sub.HasEdge(3, 4) {
		t.Fatal("edge outside keep set survived")
	}
}

func TestCompactSubgraph(t *testing.T) {
	g := Path(6)
	sub, toGlobal := g.CompactSubgraph([]int32{2, 3, 4})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("compact path: n=%d m=%d, want 3, 2", sub.N(), sub.M())
	}
	if toGlobal[0] != 2 || toGlobal[2] != 4 {
		t.Fatalf("toGlobal = %v", toGlobal)
	}
	if !sub.HasEdge(0, 1) || !sub.HasEdge(1, 2) || sub.HasEdge(0, 2) {
		t.Fatal("compact subgraph edges wrong")
	}
}

func TestEdgeKeyRoundTrip(t *testing.T) {
	f := func(u, v int32) bool {
		if u < 0 {
			u = -u
		}
		if v < 0 {
			v = -v
		}
		if u == v {
			return true
		}
		k := EdgeKey(u, v)
		return Edge{int32(k >> 32), int32(uint32(k))} == NormEdge(u, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	b := NewBuilder(7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(3, 4)
	// 5, 6 isolated
	g := b.Build()
	comps := ConnectedComponents(g)
	if len(comps) != 4 {
		t.Fatalf("components = %d, want 4", len(comps))
	}
	if len(comps[0]) != 3 {
		t.Fatalf("largest component size = %d, want 3", len(comps[0]))
	}
	if IsConnected(g) {
		t.Fatal("disconnected graph reported connected")
	}
	if !IsConnected(Path(9)) {
		t.Fatal("path reported disconnected")
	}
}

func TestBFSOrder(t *testing.T) {
	g := Path(5)
	got := BFS(g, 2)
	if len(got) != 5 || got[0] != 2 {
		t.Fatalf("BFS from 2 = %v", got)
	}
}

func TestCountTriangles(t *testing.T) {
	if n := CountTriangles(Complete(4)); n != 4 {
		t.Fatalf("K4 triangles = %d, want 4", n)
	}
	if n := CountTriangles(Cycle(5)); n != 0 {
		t.Fatalf("C5 triangles = %d, want 0", n)
	}
	if n := CountTriangles(Complete(6)); n != 20 {
		t.Fatalf("K6 triangles = %d, want 20", n)
	}
}

func TestDensity(t *testing.T) {
	if d := Density(Complete(5)); d != 1 {
		t.Fatalf("K5 density = %v, want 1", d)
	}
	if d := Density(NewBuilder(1).Build()); d != 0 {
		t.Fatalf("singleton density = %v, want 0", d)
	}
}

func TestGnmProperties(t *testing.T) {
	g := Gnm(100, 300, 42)
	if g.N() != 100 || g.M() != 300 {
		t.Fatalf("Gnm: n=%d m=%d", g.N(), g.M())
	}
	// Deterministic per seed.
	g2 := Gnm(100, 300, 42)
	if len(g.Edges()) != len(g2.Edges()) {
		t.Fatal("Gnm not deterministic")
	}
	for i, e := range g.Edges() {
		if g2.Edges()[i] != e {
			t.Fatal("Gnm not deterministic")
		}
	}
	// Requesting more edges than possible caps at the complete graph.
	gfull := Gnm(5, 100, 1)
	if gfull.M() != 10 {
		t.Fatalf("capped Gnm m=%d, want 10", gfull.M())
	}
}

func TestGenerators(t *testing.T) {
	if g := Cycle(6); g.M() != 6 || g.MaxDegree() != 2 {
		t.Fatal("cycle wrong")
	}
	if g := Grid(3, 4); g.N() != 12 || g.M() != 17 {
		t.Fatalf("grid m=%d", g.M())
	}
	pa := PreferentialAttachment(200, 2, 9)
	if pa.N() != 200 {
		t.Fatal("PA vertex count")
	}
	if !IsConnected(pa) {
		t.Fatal("PA graph should be connected")
	}
	if pa.MaxDegree() < 8 {
		t.Fatalf("PA should have hubs, max degree = %d", pa.MaxDegree())
	}
}

func TestPlantedModules(t *testing.T) {
	spec := ModuleSpec{Count: 5, MinSize: 8, MaxSize: 12, Density: 0.9, NoiseDeg: 1}
	pr := PlantedModules(500, 400, spec, 3)
	if len(pr.Modules) != 5 {
		t.Fatalf("planted %d modules, want 5", len(pr.Modules))
	}
	seen := map[int32]bool{}
	for _, mod := range pr.Modules {
		if len(mod) < 8 || len(mod) > 12 {
			t.Fatalf("module size %d out of range", len(mod))
		}
		for _, v := range mod {
			if seen[v] {
				t.Fatal("modules overlap")
			}
			seen[v] = true
		}
		// Modules should be dense.
		sub := pr.G.Subgraph(mod)
		d := 2 * float64(sub.M()) / (float64(len(mod)) * float64(len(mod)-1))
		if d < 0.7 {
			t.Fatalf("module density %.2f too low", d)
		}
	}
}

func TestOrderings(t *testing.T) {
	g := PreferentialAttachment(150, 2, 5)
	for _, o := range append(AllOrderings, RandomOrder) {
		ord := Order(g, o, 11)
		if !IsPermutation(ord, g.N()) {
			t.Fatalf("%v order is not a permutation", o)
		}
	}
	hd := Order(g, HighDegree, 0)
	for i := 1; i < len(hd); i++ {
		if g.Degree(hd[i-1]) < g.Degree(hd[i]) {
			t.Fatal("HighDegree order not descending")
		}
		if g.Degree(hd[i-1]) == g.Degree(hd[i]) && hd[i-1] > hd[i] {
			t.Fatal("HighDegree ties not broken by ascending id")
		}
	}
	ld := Order(g, LowDegree, 0)
	for i := 1; i < len(ld); i++ {
		if g.Degree(ld[i-1]) > g.Degree(ld[i]) {
			t.Fatal("LowDegree order not ascending")
		}
		if g.Degree(ld[i-1]) == g.Degree(ld[i]) && ld[i-1] > ld[i] {
			t.Fatal("LowDegree ties not broken by ascending id")
		}
	}
}

func TestOrderingStrings(t *testing.T) {
	want := map[Ordering]string{Natural: "NO", HighDegree: "HD", LowDegree: "LD", RCM: "RCM", RandomOrder: "RAND"}
	for o, s := range want {
		if o.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(o), o.String(), s)
		}
	}
	if Ordering(99).String() == "" {
		t.Fatal("unknown ordering should still stringify")
	}
}

// RCM on a path from one end should reduce to (reversed) BFS order, and
// bandwidth of a path under RCM must be 1.
func TestRCMBandwidthPath(t *testing.T) {
	g := Path(50)
	ord := ReverseCuthillMcKee(g)
	if !IsPermutation(ord, 50) {
		t.Fatal("RCM not a permutation")
	}
	pos := InversePerm(ord)
	band := 0
	g.ForEachEdge(func(u, v int32) {
		d := int(pos[u]) - int(pos[v])
		if d < 0 {
			d = -d
		}
		if d > band {
			band = d
		}
	})
	if band != 1 {
		t.Fatalf("RCM bandwidth of path = %d, want 1", band)
	}
}

func TestRCMReducesBandwidth(t *testing.T) {
	g := Gnm(200, 400, 17)
	bandOf := func(ord []int32) int {
		pos := InversePerm(ord)
		band := 0
		g.ForEachEdge(func(u, v int32) {
			d := int(pos[u]) - int(pos[v])
			if d < 0 {
				d = -d
			}
			if d > band {
				band = d
			}
		})
		return band
	}
	rcm := bandOf(ReverseCuthillMcKee(g))
	rnd := bandOf(Order(g, RandomOrder, 23))
	if rcm >= rnd {
		t.Fatalf("RCM bandwidth %d not better than random %d", rcm, rnd)
	}
}

func TestInversePerm(t *testing.T) {
	ord := []int32{2, 0, 1}
	pos := InversePerm(ord)
	for i, v := range ord {
		if pos[v] != int32(i) {
			t.Fatalf("pos[%d] = %d, want %d", v, pos[v], i)
		}
	}
}

func TestIsPermutation(t *testing.T) {
	if IsPermutation([]int32{0, 1, 1}, 3) {
		t.Fatal("duplicate accepted")
	}
	if IsPermutation([]int32{0, 1}, 3) {
		t.Fatal("short accepted")
	}
	if IsPermutation([]int32{0, 3, 1}, 3) {
		t.Fatal("out of range accepted")
	}
	if !IsPermutation([]int32{2, 0, 1}, 3) {
		t.Fatal("valid rejected")
	}
}

func TestBlockPartition(t *testing.T) {
	g := Path(10)
	ord := NaturalOrder(10)
	pt := BlockPartition(ord, 3)
	if pt.P() != 3 {
		t.Fatalf("P = %d", pt.P())
	}
	total := 0
	for _, part := range pt.Parts {
		total += len(part)
	}
	if total != 10 {
		t.Fatalf("partition covers %d vertices", total)
	}
	for p, part := range pt.Parts {
		for _, v := range part {
			if pt.Part[v] != int32(p) {
				t.Fatal("Part[] inconsistent with Parts[]")
			}
		}
	}
	// Path split into 3 contiguous blocks has exactly 2 border edges.
	if be := pt.BorderEdges(g); len(be) != 2 {
		t.Fatalf("border edges = %d, want 2", len(be))
	}
	internal, border := pt.InternalEdgeCount(g)
	if border != 2 {
		t.Fatalf("border count = %d", border)
	}
	sum := 0
	for _, c := range internal {
		sum += c
	}
	if sum+border != g.M() {
		t.Fatal("internal+border != M")
	}
}

func TestBlockPartitionEdgeCases(t *testing.T) {
	ord := NaturalOrder(4)
	if pt := BlockPartition(ord, 0); pt.P() != 1 {
		t.Fatal("P<1 should clamp to 1")
	}
	if pt := BlockPartition(ord, 9); pt.P() != 4 {
		t.Fatalf("P>n should clamp to n, got %d", BlockPartition(ord, 9).P())
	}
}

func TestEdgeListIO(t *testing.T) {
	g := Gnm(60, 150, 5)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != g.N() || g2.M() != g.M() {
		t.Fatalf("round trip: n=%d m=%d, want n=%d m=%d", g2.N(), g2.M(), g.N(), g.M())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	for _, bad := range []string{
		"1\n",
		"a b\n",
		"1 x\n",
		"-1 2\n",
		"# 2\n0 5\n",
	} {
		if _, err := ReadEdgeList(bytes.NewBufferString(bad)); err == nil {
			t.Fatalf("input %q: want error", bad)
		}
	}
	g, err := ReadEdgeList(bytes.NewBufferString("\n# comment\n0 1\n\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("parsed n=%d m=%d", g.N(), g.M())
	}
}

// Property: a built graph never contains self loops or duplicate adjacency
// entries, for random edge multisets.
func TestBuildInvariantsQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		b := NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			b.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)))
		}
		g := b.Build()
		count := 0
		for v := int32(0); int(v) < n; v++ {
			nb := g.Neighbors(v)
			for i, w := range nb {
				if w == v {
					return false
				}
				if i > 0 && nb[i-1] >= w {
					return false
				}
				count++
			}
		}
		return count == 2*g.M()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWriteDOT(t *testing.T) {
	g := Complete(4)
	var buf bytes.Buffer
	err := WriteDOT(&buf, g, DOTOptions{
		Name:      "test",
		Highlight: [][]int32{{0, 1}, {2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	s := buf.String()
	for _, want := range []string{`graph "test"`, "0 -- 1", "2 -- 3", "fillcolor"} {
		if !strings.Contains(s, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, s)
		}
	}
}

func TestWriteDOTIsolated(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	g := b.Build()
	var buf bytes.Buffer
	if err := WriteDOT(&buf, g, DOTOptions{IncludeIsolated: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "  2;") {
		t.Fatal("isolated vertex not rendered")
	}
	buf.Reset()
	if err := WriteDOT(&buf, g, DOTOptions{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "  2;") {
		t.Fatal("isolated vertex rendered without IncludeIsolated")
	}
}

func TestGraphString(t *testing.T) {
	if s := Path(3).String(); s != "graph{n=3 m=2}" {
		t.Fatalf("String = %q", s)
	}
}

func TestWindowedModulesLocality(t *testing.T) {
	// With Window=2, module vertex ids must span at most 2×size.
	spec := ModuleSpec{Count: 8, MinSize: 6, MaxSize: 6, Density: 0.9, Window: 2}
	pr := PlantedModules(600, 300, spec, 13)
	if len(pr.Modules) == 0 {
		t.Fatal("no modules placed")
	}
	for _, mod := range pr.Modules {
		lo, hi := mod[0], mod[0]
		for _, v := range mod {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if int(hi-lo) >= 2*len(mod) {
			t.Fatalf("module spans [%d,%d], beyond window %d", lo, hi, 2*len(mod))
		}
	}
}

func TestWindowedModulesExhaustion(t *testing.T) {
	// Tiny universe: the generator must stop placing modules rather than
	// loop forever or overlap them.
	spec := ModuleSpec{Count: 50, MinSize: 4, MaxSize: 4, Density: 1, Window: 1}
	pr := PlantedModules(20, 0, spec, 7)
	if len(pr.Modules) > 5 {
		t.Fatalf("placed %d modules in a 20-vertex universe", len(pr.Modules))
	}
	seen := map[int32]bool{}
	for _, mod := range pr.Modules {
		for _, v := range mod {
			if seen[v] {
				t.Fatal("overlapping modules")
			}
			seen[v] = true
		}
	}
}

func TestNoiseClumpsAttach(t *testing.T) {
	with := PlantedModules(300, 100, ModuleSpec{
		Count: 3, MinSize: 6, MaxSize: 6, Density: 0.9, NoiseClumps: 2, Window: 2,
	}, 5)
	without := PlantedModules(300, 100, ModuleSpec{
		Count: 3, MinSize: 6, MaxSize: 6, Density: 0.9, Window: 2,
	}, 5)
	if with.G.M() <= without.G.M() {
		t.Fatalf("clumps added no edges: %d vs %d", with.G.M(), without.G.M())
	}
	// Clump triangles exist: count triangles not fully inside modules.
	inModule := map[int32]bool{}
	for _, mod := range with.Modules {
		for _, v := range mod {
			inModule[v] = true
		}
	}
	outsideTri := 0
	with.G.ForEachEdge(func(u, v int32) {
		if inModule[u] || inModule[v] {
			return
		}
		// Look for a common neighbor outside modules.
		for _, w := range with.G.Neighbors(u) {
			if w != v && !inModule[w] && with.G.HasEdge(w, v) {
				outsideTri++
				break
			}
		}
	})
	if outsideTri == 0 {
		t.Fatal("no noise-clump triangles found")
	}
}

func TestWriteEdgeListError(t *testing.T) {
	g := Gnm(30, 60, 1)
	if err := WriteEdgeList(failWriter{}, g); err == nil {
		t.Fatal("want error from failing writer")
	}
	if err := WriteDOT(failWriter{}, g, DOTOptions{}); err == nil {
		t.Fatal("want error from failing writer")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errWrite }

var errWrite = errors.New("synthetic write failure")
