package ontology

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// chain builds a path DAG root->1->2->...->n-1.
func chain(n int) *DAG {
	parents := make([][]TermID, n)
	for i := 1; i < n; i++ {
		parents[i] = []TermID{TermID(i - 1)}
	}
	d, err := NewDAG(parents)
	if err != nil {
		panic(err)
	}
	return d
}

// smallTree:       0
//
//	   / \
//	  1   2
//	 / \   \
//	3   4   5
//	   /
//	  6
func smallTree(t *testing.T) *DAG {
	t.Helper()
	d, err := NewDAG([][]TermID{
		{}, {0}, {0}, {1}, {1}, {2}, {4},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestNewDAGValidation(t *testing.T) {
	if _, err := NewDAG(nil); err == nil {
		t.Fatal("empty DAG accepted")
	}
	if _, err := NewDAG([][]TermID{{1}}); err == nil {
		t.Fatal("root with parent accepted")
	}
	if _, err := NewDAG([][]TermID{{}, {}}); err == nil {
		t.Fatal("orphan non-root accepted")
	}
	if _, err := NewDAG([][]TermID{{}, {2}, {0}}); err == nil {
		t.Fatal("forward parent reference accepted")
	}
}

func TestDepths(t *testing.T) {
	d := smallTree(t)
	want := []int{0, 1, 1, 2, 2, 2, 3}
	for tid, w := range want {
		if d.Depth(TermID(tid)) != w {
			t.Fatalf("depth(%d) = %d, want %d", tid, d.Depth(TermID(tid)), w)
		}
	}
	if d.MaxDepth() != 3 {
		t.Fatalf("max depth = %d", d.MaxDepth())
	}
}

func TestMultiParentDepthIsMin(t *testing.T) {
	// Term 3 has parents at depth 0 and 1; depth = 1 (min+1).
	d, err := NewDAG([][]TermID{{}, {0}, {1}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Depth(3) != 1 {
		t.Fatalf("multi-parent depth = %d, want 1", d.Depth(3))
	}
}

func TestAncestors(t *testing.T) {
	d := smallTree(t)
	anc := d.Ancestors(6)
	for _, want := range []TermID{6, 4, 1, 0} {
		if !anc[want] {
			t.Fatalf("ancestors(6) missing %d", want)
		}
	}
	if len(anc) != 4 {
		t.Fatalf("ancestors(6) = %v", anc)
	}
}

func TestDeepestCommonParent(t *testing.T) {
	d := smallTree(t)
	cases := []struct {
		t1, t2    TermID
		wantTerm  TermID
		wantDepth int
	}{
		{3, 4, 1, 1}, // siblings under 1
		{3, 6, 1, 1}, // 6 under 4 under 1
		{3, 5, 0, 0}, // different subtrees: root
		{4, 6, 4, 2}, // ancestor relationship: DCP is the ancestor
		{6, 6, 6, 3}, // same term
	}
	s := NewScorer(d, nil)
	for _, c := range cases {
		got, depth := s.DeepestCommonParent(c.t1, c.t2)
		if got != c.wantTerm || depth != c.wantDepth {
			t.Fatalf("DCP(%d,%d) = (%d,%d), want (%d,%d)", c.t1, c.t2, got, depth, c.wantTerm, c.wantDepth)
		}
	}
}

func TestTermDistance(t *testing.T) {
	d := smallTree(t)
	cases := []struct {
		t1, t2 TermID
		want   int
	}{
		{6, 6, 0},
		{6, 4, 1},
		{3, 4, 2},
		{3, 5, 4}, // 3-1-0-2-5
		{6, 3, 3}, // 6-4-1-3
	}
	s := NewScorer(d, nil)
	for _, c := range cases {
		if got := s.TermDistance(c.t1, c.t2); got != c.want {
			t.Fatalf("dist(%d,%d) = %d, want %d", c.t1, c.t2, got, c.want)
		}
	}
}

func TestAnnotations(t *testing.T) {
	a := NewAnnotations(3)
	a.Annotate(0, 5)
	a.Annotate(0, 5) // duplicate ignored
	a.Annotate(0, 7)
	if len(a.Terms(0)) != 2 {
		t.Fatalf("terms = %v", a.Terms(0))
	}
	if a.NumGenes() != 3 {
		t.Fatal("NumGenes wrong")
	}
	if len(a.Terms(1)) != 0 {
		t.Fatal("gene 1 should be unannotated")
	}
}

func TestEdgeScore(t *testing.T) {
	d := smallTree(t)
	a := NewAnnotations(4)
	a.Annotate(0, 3)
	a.Annotate(1, 4)
	a.Annotate(2, 5)
	// genes 0,1 share DCP 1 (depth 1), breadth dist(3,4)=2 → score -1.
	sc := NewScorer(d, a)
	s, dcp := sc.EdgeScore(0, 1)
	if s != -1 || dcp != 1 {
		t.Fatalf("score = %d dcp = %d", s, dcp)
	}
	// genes 0,2: DCP root (0), dist(3,5)=4 → -4.
	if s, _ := sc.EdgeScore(0, 2); s != -4 {
		t.Fatalf("score = %d, want -4", s)
	}
	// Unannotated gene: score 0.
	if s, _ := sc.EdgeScore(0, 3); s != 0 {
		t.Fatalf("unannotated score = %d", s)
	}
}

func TestEdgeScoreSameDeepTerm(t *testing.T) {
	d := chain(8)
	a := NewAnnotations(2)
	a.Annotate(0, 7)
	a.Annotate(1, 7)
	// Identical deep terms: DCP depth 7, breadth 0 → +7.
	if s, dcp := NewScorer(d, a).EdgeScore(0, 1); s != 7 || dcp != 7 {
		t.Fatalf("score = %d dcp = %d", s, dcp)
	}
}

func TestEdgeScorePicksBestPair(t *testing.T) {
	d := chain(6)
	a := NewAnnotations(2)
	a.Annotate(0, 1) // shallow
	a.Annotate(0, 5) // deep
	a.Annotate(1, 5)
	// Pair (5,5) scores 5; pair (1,5) scores 1-4=-3. Max wins.
	if s, _ := NewScorer(d, a).EdgeScore(0, 1); s != 5 {
		t.Fatalf("score = %d, want 5", s)
	}
}

func TestScoreCluster(t *testing.T) {
	d := chain(6)
	a := NewAnnotations(3)
	for g := int32(0); g < 3; g++ {
		a.Annotate(g, 5)
	}
	full := func(u, v int32) bool { return true }
	cs := NewScorer(d, a).ScoreCluster(full, []int32{0, 1, 2})
	if cs.Edges != 3 {
		t.Fatalf("edges = %d", cs.Edges)
	}
	if cs.AEES != 5 {
		t.Fatalf("AEES = %v, want 5", cs.AEES)
	}
	if cs.DominantTerm != 5 || cs.DominantCount != 3 {
		t.Fatalf("dominant = %d ×%d", cs.DominantTerm, cs.DominantCount)
	}
	if cs.MaxEdgeScore != 5 {
		t.Fatalf("max = %d", cs.MaxEdgeScore)
	}
}

func TestScoreClusterNoEdges(t *testing.T) {
	d := chain(3)
	a := NewAnnotations(2)
	none := func(u, v int32) bool { return false }
	cs := NewScorer(d, a).ScoreCluster(none, []int32{0, 1})
	if cs.Edges != 0 || cs.AEES != 0 || cs.MaxEdgeScore != 0 {
		t.Fatalf("empty cluster score: %+v", cs)
	}
}

func TestGenerateShape(t *testing.T) {
	d := Generate(GenerateSpec{Depth: 8, Branch: 3, Seed: 1})
	if d.MaxDepth() != 8 {
		t.Fatalf("max depth = %d, want 8", d.MaxDepth())
	}
	if d.NumTerms() < 50 {
		t.Fatalf("only %d terms", d.NumTerms())
	}
	// All terms reachable from root (rooted DAG property): ancestors of any
	// term include the root.
	for tid := 0; tid < d.NumTerms(); tid++ {
		if !d.Ancestors(TermID(tid))[0] {
			t.Fatalf("term %d not rooted", tid)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(GenerateSpec{Depth: 6, Branch: 3, Seed: 42})
	b := Generate(GenerateSpec{Depth: 6, Branch: 3, Seed: 42})
	if a.NumTerms() != b.NumTerms() {
		t.Fatal("generator not deterministic")
	}
}

func TestLeafAtDepth(t *testing.T) {
	d := smallTree(t)
	rng := rand.New(rand.NewSource(1))
	if got := d.LeafAtDepth(2, rng); d.Depth(got) != 2 {
		t.Fatalf("LeafAtDepth(2) gave depth %d", d.Depth(got))
	}
	// Requesting deeper than max returns the deepest term.
	if got := d.LeafAtDepth(99, rng); d.Depth(got) != d.MaxDepth() {
		t.Fatal("deep request should fall back to deepest term")
	}
}

func TestAnnotateModulesSeparatesSignalFromNoise(t *testing.T) {
	d := Generate(GenerateSpec{Depth: 10, Branch: 3, Seed: 7})
	modules := [][]int32{{0, 1, 2, 3, 4}, {5, 6, 7, 8}}
	a := AnnotateModules(d, 50, modules, 8, 3)
	full := func(u, v int32) bool { return true }
	s := NewScorer(d, a)
	modScore := s.ScoreCluster(full, modules[0])
	bg := []int32{20, 21, 22, 23, 24}
	bgScore := s.ScoreCluster(full, bg)
	if modScore.AEES <= bgScore.AEES {
		t.Fatalf("module AEES %v not above background AEES %v", modScore.AEES, bgScore.AEES)
	}
	if modScore.AEES < 3 {
		t.Fatalf("module AEES %v too low (want ≥ 3, 'biologically relevant')", modScore.AEES)
	}
	if bgScore.AEES > 2 {
		t.Fatalf("background AEES %v too high", bgScore.AEES)
	}
}

// TestAnnotateModulesMatchesOracle: the one-backing-array layout gives
// every gene the term list, in order, that per-gene Annotate calls build
// from the same draws — with modules that overlap, repeat a gene, sit at a
// depth with no terms, or hit a leaf with no children — and an Annotate on
// the result leaves the neighbouring genes alone.
func TestAnnotateModulesMatchesOracle(t *testing.T) {
	cases := []struct {
		name    string
		d       *DAG
		genes   int
		modules [][]int32
		depth   int
	}{
		{"synth-like", Generate(GenerateSpec{Depth: 10, Branch: 3, Seed: 3}), 400, [][]int32{{0, 1, 2, 3, 4, 5}, {10, 11, 12, 13}, {40, 41, 42}}, 6},
		{"overlap-and-repeat", Generate(GenerateSpec{Depth: 6, Branch: 2, Seed: 5}), 60, [][]int32{{0, 1, 2, 2, 3}, {2, 3, 4}, {3, 3, 3}}, 4},
		{"too-deep", Generate(GenerateSpec{Depth: 5, Branch: 2, Seed: 8}), 30, [][]int32{{0, 1, 2}, {5, 6}}, 99},
		{"chain-leaf", chain(4), 20, [][]int32{{0, 1, 2, 3}}, 3},
		{"no-modules", chain(5), 25, nil, 2},
	}
	for _, c := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			got := AnnotateModules(c.d, c.genes, c.modules, c.depth, seed)
			want := oracleAnnotateModules(c.d, c.genes, c.modules, c.depth, seed)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s seed %d: annotations differ from the oracle", c.name, seed)
			}
			got.Annotate(0, TermID(c.d.NumTerms()-1))
			for g := int32(1); g < int32(c.genes); g++ {
				if !reflect.DeepEqual(got.Terms(g), want.Terms(g)) {
					t.Fatalf("%s seed %d: Annotate on gene 0 changed gene %d", c.name, seed, g)
				}
			}
		}
	}
}

// TestAnnotateModulesAllocatesPerCall: a 2,048-gene synthesized request's
// annotation table takes a handful of allocations, not one per gene.
func TestAnnotateModulesAllocatesPerCall(t *testing.T) {
	d := Generate(GenerateSpec{Depth: 10, Branch: 3, Seed: 2})
	modules := make([][]int32, 16)
	for i := range modules {
		for j := 0; j < 20; j++ {
			modules[i] = append(modules[i], int32(i*20+j))
		}
	}
	allocs := testing.AllocsPerRun(5, func() { AnnotateModules(d, 2048, modules, 6, 3) })
	if allocs > 32 {
		t.Fatalf("AnnotateModules made %.0f allocations for 2048 genes, want ≤ 32", allocs)
	}
}

// Property: the DCP is an ancestor of both terms with non-negative depth
// (the root is always a fallback), its depth equals the reported depth, and
// term distance is symmetric and bounded by the path through the DCP.
// (Note: in a multi-parent DAG with min-depth convention the DCP *can* be
// deeper than one of the terms, so that is deliberately not asserted.)
func TestDCPQuick(t *testing.T) {
	d := Generate(GenerateSpec{Depth: 7, Branch: 3, Seed: 11})
	n := int32(d.NumTerms())
	s := NewScorer(d, nil)
	f := func(x, y uint16) bool {
		t1 := TermID(int32(x) % n)
		t2 := TermID(int32(y) % n)
		cp, depth := s.DeepestCommonParent(t1, t2)
		if depth < 0 || d.Depth(cp) != depth {
			return false
		}
		if !d.Ancestors(t1)[cp] || !d.Ancestors(t2)[cp] {
			return false
		}
		dist := s.TermDistance(t1, t2)
		if dist != s.TermDistance(t2, t1) {
			return false
		}
		// Shortest path is no longer than going through the DCP.
		viaDCP := s.TermDistance(t1, cp) + s.TermDistance(cp, t2)
		return dist <= viaDCP
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
