package analysis

import (
	"math"
	"testing"

	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/ontology"
)

// mustMatch runs MatchClustersContext under the test's context and fails
// the test on an error.
func mustMatch(t *testing.T, gOrig *graph.Graph, orig []ScoredCluster, gFilt *graph.Graph, filt []ScoredCluster) []Match {
	t.Helper()
	out, err := MatchClustersContext(t.Context(), gOrig, orig, gFilt, filt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestNodeOverlap(t *testing.T) {
	a := []int32{1, 2, 3, 4}
	b := []int32{3, 4, 5, 6}
	if got := NodeOverlap(a, b); got != 0.5 {
		t.Fatalf("overlap = %v, want 0.5", got)
	}
	if got := NodeOverlap(a, nil); got != 0 {
		t.Fatalf("empty b = %v", got)
	}
	if got := NodeOverlap(nil, b); got != 0 {
		t.Fatalf("empty a = %v", got)
	}
	if got := NodeOverlap(a, a); got != 1 {
		t.Fatalf("self overlap = %v", got)
	}
}

func TestEdgeOverlap(t *testing.T) {
	// Original: K4 on 0..3. Filtered graph: same K4 minus edge (0,1).
	go4 := graph.Complete(4)
	b := graph.NewBuilder(4)
	go4.ForEachEdge(func(u, v int32) {
		if !(u == 0 && v == 1) {
			b.AddEdge(u, v)
		}
	})
	gf := b.Build()
	vs := []int32{0, 1, 2, 3}
	// Filtered cluster has 5 edges, all present in original: 5/5 = 1.
	if got := EdgeOverlap(go4, vs, gf, vs); got != 1 {
		t.Fatalf("edge overlap = %v, want 1", got)
	}
	// Reversed direction: original cluster has 6 edges, 5 shared: 5/6.
	if got := EdgeOverlap(gf, vs, go4, vs); math.Abs(got-5.0/6) > 1e-12 {
		t.Fatalf("edge overlap = %v, want 5/6", got)
	}
	// Edgeless denominator.
	if got := EdgeOverlap(go4, vs, gf, []int32{0}); got != 0 {
		t.Fatalf("edgeless = %v", got)
	}
}

func TestClassifyQuadrants(t *testing.T) {
	cases := []struct {
		aees, ov float64
		want     Quadrant
	}{
		{5, 0.9, TruePositive},
		{1, 0.9, FalsePositive},
		{5, 0.1, FalseNegative},
		{1, 0.1, TrueNegative},
		{3, 0.51, TruePositive}, // AEES exactly at threshold counts as high
		{2.99, 0.51, FalsePositive},
		{3, 0.5, FalseNegative}, // overlap must exceed threshold
	}
	for _, c := range cases {
		got := Classify(c.aees, c.ov, DefaultAEESThreshold, DefaultOverlapThreshold)
		if got != c.want {
			t.Fatalf("Classify(%v,%v) = %v, want %v", c.aees, c.ov, got, c.want)
		}
	}
}

func TestQuadrantStrings(t *testing.T) {
	if TruePositive.String() != "TP" || FalsePositive.String() != "FP" ||
		FalseNegative.String() != "FN" || TrueNegative.String() != "TN" {
		t.Fatal("quadrant strings wrong")
	}
	if Quadrant(9).String() != "?" {
		t.Fatal("unknown quadrant")
	}
	if ByNode.String() != "node" || ByEdge.String() != "edge" {
		t.Fatal("overlap kind strings wrong")
	}
}

func TestCountsSensitivitySpecificity(t *testing.T) {
	c := Counts{TP: 8, FN: 2, TN: 6, FP: 4}
	if s := c.Sensitivity(); math.Abs(s-0.8) > 1e-12 {
		t.Fatalf("sensitivity = %v", s)
	}
	if s := c.Specificity(); math.Abs(s-0.6) > 1e-12 {
		t.Fatalf("specificity = %v", s)
	}
	var zero Counts
	if zero.Sensitivity() != 0 || zero.Specificity() != 0 {
		t.Fatal("zero counts should give 0")
	}
}

func TestCountsAdd(t *testing.T) {
	var c Counts
	for _, q := range []Quadrant{TruePositive, TruePositive, FalsePositive, FalseNegative, TrueNegative} {
		c.Add(q)
	}
	if c.TP != 2 || c.FP != 1 || c.FN != 1 || c.TN != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

// buildScored makes a ScoredCluster from raw vertices with a fixed AEES.
func buildScored(vs []int32, aees float64) ScoredCluster {
	return ScoredCluster{
		Cluster: mcode.Cluster{Vertices: vs},
		Score:   ontology.ClusterScore{AEES: aees},
	}
}

func TestMatchClustersBestOverlap(t *testing.T) {
	g := graph.Complete(10)
	orig := []ScoredCluster{
		buildScored([]int32{0, 1, 2, 3}, 4),
		buildScored([]int32{6, 7, 8}, 2),
	}
	filt := []ScoredCluster{
		buildScored([]int32{0, 1, 2}, 4), // matches orig 0 fully
		buildScored([]int32{6, 9}, 1),    // partial match with orig 1
		buildScored([]int32{4, 5}, 0),    // matches nothing
	}
	matches := mustMatch(t, g, orig, g, filt)
	if matches[0].OriginalID != 0 || matches[0].Overlap.NodeFrac != 1 {
		t.Fatalf("match[0] = %+v", matches[0])
	}
	if matches[1].OriginalID != 1 || matches[1].Overlap.NodeFrac != 0.5 {
		t.Fatalf("match[1] = %+v", matches[1])
	}
	if matches[2].OriginalID != -1 {
		t.Fatalf("match[2] = %+v, want unmatched", matches[2])
	}
}

func TestQuadrantCountsAndLostFound(t *testing.T) {
	g := graph.Complete(12)
	orig := []ScoredCluster{
		buildScored([]int32{0, 1, 2, 3}, 5),
		buildScored([]int32{8, 9, 10, 11}, 1), // will be lost
	}
	filt := []ScoredCluster{
		buildScored([]int32{0, 1, 2, 3}, 5), // TP (full overlap, high AEES)
		buildScored([]int32{4, 5, 6}, 4),    // found, FN (no overlap, high AEES)
	}
	matches := mustMatch(t, g, orig, g, filt)
	counts := QuadrantCounts(filt, matches, ByNode, DefaultAEESThreshold, DefaultOverlapThreshold)
	if counts.TP != 1 || counts.FN != 1 || counts.FP != 0 || counts.TN != 0 {
		t.Fatalf("counts = %+v", counts)
	}
	lf := FindLostFound(len(orig), matches)
	if len(lf.Lost) != 1 || lf.Lost[0] != 1 {
		t.Fatalf("lost = %v", lf.Lost)
	}
	if len(lf.Found) != 1 || lf.Found[0] != 1 {
		t.Fatalf("found = %v", lf.Found)
	}
}

func TestQuadrantCountsByEdge(t *testing.T) {
	g := graph.Complete(6)
	orig := []ScoredCluster{buildScored([]int32{0, 1, 2, 3}, 5)}
	filt := []ScoredCluster{buildScored([]int32{0, 1, 2, 3}, 5)}
	matches := mustMatch(t, g, orig, g, filt)
	counts := QuadrantCounts(filt, matches, ByEdge, 3, 0.5)
	if counts.TP != 1 {
		t.Fatalf("edge-based counts = %+v", counts)
	}
}

func TestScoreClusters(t *testing.T) {
	d := ontology.Generate(ontology.GenerateSpec{Depth: 8, Branch: 3, Seed: 1})
	modules := [][]int32{{0, 1, 2, 3}}
	a := ontology.AnnotateModules(d, 10, modules, 6, 2)
	g := graph.Complete(10)
	clusters := []mcode.Cluster{{Vertices: []int32{0, 1, 2, 3}}, {Vertices: []int32{5, 6, 7}}}
	scored := mustScore(t, d, a, g, clusters)
	if len(scored) != 2 {
		t.Fatal("wrong count")
	}
	if scored[0].Score.AEES <= scored[1].Score.AEES {
		t.Fatalf("module cluster AEES %v should beat background %v",
			scored[0].Score.AEES, scored[1].Score.AEES)
	}
}

func TestModuleRecovery(t *testing.T) {
	modules := [][]int32{{0, 1, 2, 3}, {4, 5, 6, 7}}
	clusters := []mcode.Cluster{{Vertices: []int32{0, 1, 2, 3}}}
	if r := ModuleRecovery(modules, clusters, 0.75); r != 0.5 {
		t.Fatalf("recovery = %v, want 0.5", r)
	}
	if r := ModuleRecovery(nil, clusters, 0.75); r != 0 {
		t.Fatal("no modules should give 0")
	}
}
