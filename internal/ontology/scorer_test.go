package ontology

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// randomDAG builds an n-term DAG in which every non-root term draws 1 to
// maxParents parents among the earlier terms: cross links between branches,
// multi-parent terms whose min-depth can sit above a deeper parent, and the
// odd repeated parent (which ReadDAG accepts too).
func randomDAG(rng *rand.Rand, n, maxParents int) *DAG {
	parents := make([][]TermID, n)
	for t := 1; t < n; t++ {
		k := 1 + rng.Intn(maxParents)
		for i := 0; i < k; i++ {
			parents[t] = append(parents[t], TermID(rng.Intn(t)))
		}
	}
	d, err := NewDAG(parents)
	if err != nil {
		panic(err)
	}
	return d
}

// randomAnnotations gives each of genes genes 0 to 3 terms: unannotated
// genes, multi-term genes, the root, and genes sharing a term (t1 == t2).
func randomAnnotations(rng *rand.Rand, d *DAG, genes int) *Annotations {
	a := NewAnnotations(genes)
	shared := TermID(rng.Intn(d.NumTerms()))
	for g := int32(0); g < int32(genes); g++ {
		for k := rng.Intn(4); k > 0; k-- {
			switch rng.Intn(6) {
			case 0:
				a.Annotate(g, 0)
			case 1:
				a.Annotate(g, shared)
			default:
				a.Annotate(g, TermID(rng.Intn(d.NumTerms())))
			}
		}
	}
	return a
}

// checkScorerMatchesOracle compares one Scorer, reused throughout so its
// memo, stamps and tally carry over between calls, with the map-based
// oracle: DCP and distance on term pairs, EdgeScore on every ordered gene
// pair, and ScoreCluster on random clusters of a random host graph, with
// vertices in random order.
func checkScorerMatchesOracle(t *testing.T, s *Scorer, rng *rand.Rand) {
	t.Helper()
	d, a := s.d, s.a
	n := d.NumTerms()
	for i := 0; i < 200; i++ {
		t1, t2 := TermID(rng.Intn(n)), TermID(rng.Intn(n))
		if i < 4 {
			t2 = t1
		}
		gotT, gotD := s.DeepestCommonParent(t1, t2)
		wantT, wantD := oracleDCP(d, t1, t2)
		if gotT != wantT || gotD != wantD {
			t.Fatalf("DCP(%d,%d) = (%d,%d), oracle (%d,%d)", t1, t2, gotT, gotD, wantT, wantD)
		}
		if got, want := s.TermDistance(t1, t2), oracleTermDistance(d, t1, t2); got != want {
			t.Fatalf("TermDistance(%d,%d) = %d, oracle %d", t1, t2, got, want)
		}
	}
	genes := int32(a.NumGenes())
	for g1 := int32(0); g1 < genes; g1++ {
		for g2 := int32(0); g2 < genes; g2++ {
			gs, gt := s.EdgeScore(g1, g2)
			ws, wt := oracleEdgeScore(d, a, g1, g2)
			if gs != ws || gt != wt {
				t.Fatalf("EdgeScore(%d,%d) = (%d,%d), oracle (%d,%d); terms %v × %v",
					g1, g2, gs, gt, ws, wt, a.Terms(g1), a.Terms(g2))
			}
		}
	}
	adj := make([]bool, genes*genes)
	density := rng.Float64()
	for u := int32(0); u < genes; u++ {
		for v := u + 1; v < genes; v++ {
			if rng.Float64() < density {
				adj[u*genes+v], adj[v*genes+u] = true, true
			}
		}
	}
	hasEdge := func(u, v int32) bool { return adj[u*genes+v] }
	for c := 0; c < 8; c++ {
		vs := rng.Perm(int(genes))[:rng.Intn(int(genes)+1)]
		cluster := make([]int32, len(vs))
		for i, v := range vs {
			cluster[i] = int32(v)
		}
		got := s.ScoreCluster(hasEdge, cluster)
		want := oracleScoreCluster(d, a, hasEdge, cluster)
		if got != want {
			t.Fatalf("ScoreCluster(%v) = %+v, oracle %+v", cluster, got, want)
		}
	}
}

func TestScorerMatchesOracle(t *testing.T) {
	multiParent, err := NewDAG([][]TermID{{}, {0}, {1}, {2}, {0, 3}, {4, 1}, {5, 5}, {3, 6}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		d    *DAG
	}{
		{"root only", chain(1)},
		{"chain", chain(12)},
		{"tree", smallTree(t)},
		{"multi-parent", multiParent},
		{"generated", Generate(GenerateSpec{Depth: 6, Branch: 3, Seed: 3})},
		{"generated cross links", Generate(GenerateSpec{Depth: 8, Branch: 4, CrossLinkPct: 0.4, Seed: 5})},
		{"random 2 parents", randomDAG(rng, 60, 2)},
		{"random 4 parents", randomDAG(rng, 200, 4)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(c.d.NumTerms())))
			s := NewScorer(c.d, randomAnnotations(rng, c.d, 24))
			checkScorerMatchesOracle(t, s, rng)
		})
	}
	// Stamp wrap-around: the scratch is cleared and the epochs restart.
	t.Run("epoch wrap", func(t *testing.T) {
		d := Generate(GenerateSpec{Depth: 5, Branch: 3, CrossLinkPct: 0.3, Seed: 9})
		rng := rand.New(rand.NewSource(9))
		s := NewScorer(d, randomAnnotations(rng, d, 16))
		s.DeepestCommonParent(1, 2)
		s.epoch = math.MaxUint32 - 5
		checkScorerMatchesOracle(t, s, rng)
		if s.epoch > 1<<20 {
			t.Fatalf("epoch %d did not wrap", s.epoch)
		}
	})
}

// TestNewDAGAllocatesLinearly pins the rule that nothing quadratic is
// precomputed per DAG: doubling a chain (whose ancestor sets total n²/2)
// must about double what ReadDAG and NewDAG allocate. The larger chain
// still scores a cluster.
func TestNewDAGAllocatesLinearly(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	type cost struct{ newDAG, readDAG uint64 }
	var costs [2]cost
	var big *DAG
	for i, n := range []int{1 << 14, 1 << 15} {
		parents := make([][]TermID, n)
		for t := 1; t < n; t++ {
			parents[t] = []TermID{TermID(t - 1)}
		}
		var text bytes.Buffer
		if err := WriteDAG(&text, chain(n)); err != nil {
			t.Fatal(err)
		}
		var err error
		costs[i].newDAG = allocated(func() { big, err = NewDAG(parents) })
		if err != nil {
			t.Fatal(err)
		}
		costs[i].readDAG = allocated(func() { big, err = ReadDAG(strings.NewReader(text.String())) })
		if err != nil || big.NumTerms() != n {
			t.Fatalf("ReadDAG: %v", err)
		}
	}
	for _, c := range []struct {
		name         string
		small, large uint64
	}{
		{"NewDAG", costs[0].newDAG, costs[1].newDAG},
		{"ReadDAG", costs[0].readDAG, costs[1].readDAG},
	} {
		if ratio := float64(c.large) / float64(c.small); ratio > 2.5 {
			t.Errorf("%s allocated %d bytes on 2^14 terms, %d on 2^15: ratio %.2f > 2.5", c.name, c.small, c.large, ratio)
		}
	}

	// On a chain the DCP of terms i < j is i, at depth i, and their
	// distance is j − i.
	n := TermID(big.NumTerms())
	a := NewAnnotations(3)
	a.Annotate(0, n-1)
	a.Annotate(1, n-2)
	a.Annotate(2, n/2)
	full := func(u, v int32) bool { return true }
	got := NewScorer(big, a).ScoreCluster(full, []int32{0, 1, 2})
	want := ClusterScore{
		AEES:          float64(int(n-3)+1+2) / 3,
		MaxEdgeScore:  int(n - 3),
		DominantTerm:  n / 2,
		DominantCount: 2,
		Edges:         3,
	}
	if got != want {
		t.Fatalf("chain cluster = %+v, want %+v", got, want)
	}
}
