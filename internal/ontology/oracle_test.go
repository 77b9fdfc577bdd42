package ontology

import (
	"math/rand"
	"sort"
)

// The map-based scoring below is the reference the Scorer is checked
// against: each DCP builds both terms' ancestor sets, each distance runs a
// one-sided BFS over a map, and nothing is memoized.

// Ancestors returns the set of ancestors of t (including t itself).
func (d *DAG) Ancestors(t TermID) map[TermID]bool {
	out := map[TermID]bool{t: true}
	stack := []TermID{t}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range d.parents[v] {
			if !out[p] {
				out[p] = true
				stack = append(stack, p)
			}
		}
	}
	return out
}

// oracleDCP is the reference DeepestCommonParent: deepest common ancestor,
// equal depths to the smallest id.
func oracleDCP(d *DAG, t1, t2 TermID) (TermID, int) {
	a1 := d.Ancestors(t1)
	best := TermID(0)
	bestDepth := -1
	for a := range d.Ancestors(t2) {
		if !a1[a] {
			continue
		}
		depth := int(d.depth[a])
		if depth > bestDepth || (depth == bestDepth && a < best) {
			best, bestDepth = a, depth
		}
	}
	return best, bestDepth
}

// oracleTermDistance is the reference TermDistance.
func oracleTermDistance(d *DAG, t1, t2 TermID) int {
	if t1 == t2 {
		return 0
	}
	dist := make(map[TermID]int, 64)
	dist[t1] = 0
	queue := []TermID{t1}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		next := dist[v] + 1
		for _, lists := range [2][]TermID{d.parents[v], d.children[v]} {
			for _, w := range lists {
				if _, ok := dist[w]; !ok {
					if w == t2 {
						return next
					}
					dist[w] = next
					queue = append(queue, w)
				}
			}
		}
	}
	return -1
}

// oracleEdgeScore is the reference Scorer.EdgeScore.
func oracleEdgeScore(d *DAG, a *Annotations, g1, g2 int32) (score int, dcp TermID) {
	t1s, t2s := a.Terms(g1), a.Terms(g2)
	if len(t1s) == 0 || len(t2s) == 0 {
		return 0, 0
	}
	best := -1 << 30
	bestTerm := TermID(0)
	for _, t1 := range t1s {
		for _, t2 := range t2s {
			cp, depth := oracleDCP(d, t1, t2)
			s := depth - oracleTermDistance(d, t1, t2)
			if s > best {
				best, bestTerm = s, cp
			}
		}
	}
	return best, bestTerm
}

// oracleScoreCluster is the reference Scorer.ScoreCluster.
func oracleScoreCluster(d *DAG, a *Annotations, hasEdge func(u, v int32) bool, vertices []int32) ClusterScore {
	var cs ClusterScore
	termCount := map[TermID]int{}
	sum := 0
	cs.MaxEdgeScore = -1 << 30
	for i := 0; i < len(vertices); i++ {
		for j := i + 1; j < len(vertices); j++ {
			u, v := vertices[i], vertices[j]
			if !hasEdge(u, v) {
				continue
			}
			s, dcp := oracleEdgeScore(d, a, u, v)
			sum += s
			cs.Edges++
			termCount[dcp]++
			if s > cs.MaxEdgeScore {
				cs.MaxEdgeScore = s
			}
		}
	}
	if cs.Edges == 0 {
		cs.MaxEdgeScore = 0
		return cs
	}
	cs.AEES = float64(sum) / float64(cs.Edges)
	type tc struct {
		t TermID
		c int
	}
	all := make([]tc, 0, len(termCount))
	for t, c := range termCount {
		all = append(all, tc{t, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].t < all[j].t
	})
	cs.DominantTerm = all[0].t
	cs.DominantCount = all[0].c
	return cs
}

// oracleAnnotateModules is the reference AnnotateModules: the same draws in
// the same order, each added through Annotate, so every gene gets its own
// growing slice.
func oracleAnnotateModules(d *DAG, numGenes int, modules [][]int32, moduleDepth int, seed int64) *Annotations {
	rng := rand.New(rand.NewSource(seed))
	a := NewAnnotations(numGenes)
	annotated := make([]bool, numGenes)
	at := d.termsAtDepth(moduleDepth)
	for _, mod := range modules {
		mt := d.pickLeaf(at, rng)
		kids := d.Children(mt)
		for _, g := range mod {
			t := mt
			if len(kids) > 0 && rng.Float64() < 0.5 {
				t = kids[rng.Intn(len(kids))]
			}
			a.Annotate(g, t)
			annotated[g] = true
		}
	}
	var shallow []TermID
	for t := 0; t < d.NumTerms(); t++ {
		if d.Depth(TermID(t)) <= 3 {
			shallow = append(shallow, TermID(t))
		}
	}
	for g := 0; g < numGenes; g++ {
		if annotated[g] {
			continue
		}
		k := 1 + rng.Intn(2)
		for i := 0; i < k; i++ {
			a.Annotate(int32(g), shallow[rng.Intn(len(shallow))])
		}
	}
	return a
}
