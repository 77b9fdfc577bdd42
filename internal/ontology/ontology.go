// Package ontology provides the Gene Ontology substrate used for the paper's
// orthogonal validation: a GO-like levelled DAG of functional terms, gene
// annotations, the Deepest Common Parent (DCP) of two genes' terms, term
// breadth (shortest path between terms), the resulting per-edge enrichment
// score (DCP depth − term breadth, Dempsey et al. 2011), and the Average
// Edge Enrichment Score (AEES) of a cluster.
//
// A synthetic generator substitutes for the real GO biological-process tree:
// it preserves the two properties the scoring depends on — term depth
// increases specificity, and functionally related genes share deep terms
// while unrelated genes share only shallow ancestors (see DESIGN.md).
package ontology

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// TermID identifies a term in the DAG. The root is always term 0.
type TermID = int32

// DAG is a rooted directed acyclic graph of terms. Edges point from child to
// parent(s); the root has no parents. Depth is the distance from the root
// along the (primary) parent chain.
type DAG struct {
	parents  [][]TermID
	children [][]TermID
	depth    []int32
}

// NumTerms returns the number of terms, including the root.
func (d *DAG) NumTerms() int { return len(d.parents) }

// Depth returns the depth of term t (root = 0).
func (d *DAG) Depth(t TermID) int { return int(d.depth[t]) }

// Parents returns the parent terms of t (empty for the root).
func (d *DAG) Parents(t TermID) []TermID { return d.parents[t] }

// Children returns the child terms of t.
func (d *DAG) Children(t TermID) []TermID { return d.children[t] }

// MaxDepth returns the depth of the deepest term.
func (d *DAG) MaxDepth() int {
	mx := int32(0)
	for _, v := range d.depth {
		if v > mx {
			mx = v
		}
	}
	return int(mx)
}

// NewDAG builds a DAG from parent lists. parents[0] must be empty (root).
// Every parent id must be smaller than its child id (topological numbering),
// which guarantees acyclicity.
func NewDAG(parents [][]TermID) (*DAG, error) {
	if len(parents) == 0 {
		return nil, fmt.Errorf("ontology: empty DAG")
	}
	if len(parents[0]) != 0 {
		return nil, fmt.Errorf("ontology: root must have no parents")
	}
	n := len(parents)
	d := &DAG{
		parents:  parents,
		children: make([][]TermID, n),
		depth:    make([]int32, n),
	}
	// next[p] counts p's children here; below it becomes the position where
	// p's next child goes in one shared backing array.
	next := make([]int32, n)
	for t := 1; t < n; t++ {
		if len(parents[t]) == 0 {
			return nil, fmt.Errorf("ontology: term %d has no parents and is not the root", t)
		}
		minDepth := int32(-1)
		for _, p := range parents[t] {
			if int(p) >= t || p < 0 {
				return nil, fmt.Errorf("ontology: term %d has invalid parent %d (need parent < child)", t, p)
			}
			next[p]++
			if minDepth < 0 || d.depth[p]+1 < minDepth {
				minDepth = d.depth[p] + 1
			}
		}
		d.depth[t] = minDepth
	}
	links := int32(0)
	for p, c := range next {
		next[p] = links
		links += c
	}
	flat := make([]TermID, links)
	for t := 1; t < n; t++ {
		for _, p := range parents[t] {
			flat[next[p]] = TermID(t)
			next[p]++
		}
	}
	start := int32(0)
	for p, end := range next {
		d.children[p] = flat[start:end:end]
		start = end
	}
	return d, nil
}

// Annotations maps genes to their GO terms.
type Annotations struct {
	terms [][]TermID
}

// NewAnnotations creates an annotation table for n genes.
func NewAnnotations(n int) *Annotations {
	return &Annotations{terms: make([][]TermID, n)}
}

// Annotate adds term t to gene g (duplicates are ignored).
func (a *Annotations) Annotate(g int32, t TermID) {
	for _, x := range a.terms[g] {
		if x == t {
			return
		}
	}
	a.terms[g] = append(a.terms[g], t)
}

// Terms returns the terms of gene g.
func (a *Annotations) Terms(g int32) []TermID { return a.terms[g] }

// NumGenes returns the number of genes in the table.
func (a *Annotations) NumGenes() int { return len(a.terms) }

// Scorer computes edge enrichment scores and cluster summaries against one
// DAG and annotation table. It memoizes every term pair it scores under the
// ordered pair, since DCP and term distance are both symmetric, and runs the
// DCP walk and the distance search over epoch-stamped arrays of length
// NumTerms, allocated on first use. Nothing is precomputed on the DAG: the
// ancestor sets of a chain are quadratic in its length, and an inline
// ontology may hold millions of terms, so NewDAG stays linear and a
// Scorer's scratch is O(NumTerms).
//
// A Scorer is not safe for concurrent use. It only reads the DAG and the
// annotations, so any number of Scorers may share them.
type Scorer struct {
	d    *DAG
	a    *Annotations
	memo map[uint64]pairScore

	// Search scratch. A search owns the stamp values epoch and epoch+1 (one
	// per side); every search advances epoch by 2, so stamps are never
	// cleared between searches.
	stamp []uint32
	epoch uint32
	stack []TermID    // DCP: ancestor walk
	dist  []int32     // distance search: hops from the side's start term
	front [2][]TermID // distance search: each side's current level
	spare []TermID    // distance search: the level being built

	// Dominant-term tally of the cluster being scored.
	count   []int32
	counted []TermID
}

// pairScore is the memoized result of one term pair.
type pairScore struct {
	score int // DCP depth − term distance
	dcp   TermID
}

// NewScorer returns a Scorer over d and a. a may be nil when only
// DeepestCommonParent and TermDistance are used.
func NewScorer(d *DAG, a *Annotations) *Scorer {
	return &Scorer{d: d, a: a, memo: make(map[uint64]pairScore)}
}

// begin starts a search and returns its first stamp value; the second side
// of the search stamps with the value after it.
func (s *Scorer) begin() uint32 {
	if s.stamp == nil {
		s.stamp = make([]uint32, s.d.NumTerms())
		s.dist = make([]int32, s.d.NumTerms())
	}
	if s.epoch >= math.MaxUint32-3 {
		clear(s.stamp)
		s.epoch = 0
	}
	s.epoch += 2
	return s.epoch
}

// DeepestCommonParent returns the deepest term that is an ancestor of both
// t1 and t2 (possibly one of them), and its depth. The root is a common
// ancestor of everything, so a result always exists. Equal-depth candidates
// tie-break on the smallest term id, so the result does not depend on the
// walk order (the determinism contract: every pipeline artifact is a pure
// function of its inputs, and DominantTerm flows into Figure 9/11 output).
func (s *Scorer) DeepestCommonParent(t1, t2 TermID) (TermID, int) {
	in1 := s.begin()
	walked := in1 + 1
	parents, stamp := s.d.parents, s.stamp

	// Stamp t1 and its ancestors.
	stack := append(s.stack[:0], t1)
	stamp[t1] = in1
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range parents[v] {
			if stamp[p] != in1 {
				stamp[p] = in1
				stack = append(stack, p)
			}
		}
	}

	// Walk t2 and its ancestors; each one still stamped in1 is common. A
	// common ancestor's own parents are walked too: with the min-depth
	// convention a parent can be deeper than its child.
	best, bestDepth := TermID(0), -1
	visit := func(v TermID) {
		if stamp[v] == in1 {
			if dv := int(s.d.depth[v]); dv > bestDepth || (dv == bestDepth && v < best) {
				best, bestDepth = v, dv
			}
		}
		stamp[v] = walked
		stack = append(stack, v)
	}
	visit(t2)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, p := range parents[v] {
			if stamp[p] != walked {
				visit(p)
			}
		}
	}
	s.stack = stack
	return best, bestDepth
}

// TermDistance returns the length of the shortest path between t1 and t2 in
// the DAG viewed as an undirected graph (the paper's "term breadth"). It
// searches from both ends, each step expanding the smaller frontier by one
// whole level. The first term one side reaches that the other side already
// holds closes a shortest path: before that level the two balls were
// disjoint, so no path is shorter than their radii plus one.
func (s *Scorer) TermDistance(t1, t2 TermID) int {
	if t1 == t2 {
		return 0
	}
	base := s.begin()
	stamp, dist := s.stamp, s.dist
	s.front[0] = append(s.front[0][:0], t1)
	s.front[1] = append(s.front[1][:0], t2)
	stamp[t1], dist[t1] = base, 0
	stamp[t2], dist[t2] = base+1, 0
	for len(s.front[0]) > 0 && len(s.front[1]) > 0 {
		side := 0
		if len(s.front[1]) < len(s.front[0]) {
			side = 1
		}
		mine, other := base+uint32(side), base+uint32(1-side)
		next := s.spare[:0]
		for _, v := range s.front[side] {
			dv := dist[v] + 1
			for _, lists := range [2][]TermID{s.d.parents[v], s.d.children[v]} {
				for _, w := range lists {
					switch stamp[w] {
					case mine:
						continue
					case other:
						s.spare = next
						return int(dv + dist[w])
					}
					stamp[w], dist[w] = mine, dv
					next = append(next, w)
				}
			}
		}
		s.spare, s.front[side] = s.front[side], next
	}
	return -1 // unreachable: DAG is rooted, so this cannot happen
}

// pair returns the memoized score and DCP of the term pair (t1, t2).
func (s *Scorer) pair(t1, t2 TermID) pairScore {
	if t1 > t2 {
		t1, t2 = t2, t1
	}
	key := uint64(uint32(t1))<<32 | uint64(uint32(t2))
	if p, ok := s.memo[key]; ok {
		return p
	}
	dcp, depth := s.DeepestCommonParent(t1, t2)
	p := pairScore{score: depth - s.TermDistance(t1, t2), dcp: dcp}
	s.memo[key] = p
	return p
}

// EdgeScore computes the enrichment score of the edge (g1, g2): over all
// annotation term pairs, the maximum of DCP depth − term breadth. The edge's
// annotating term is the DCP of the first pair achieving the maximum.
// Returns score 0 and the root term when either gene is unannotated.
func (s *Scorer) EdgeScore(g1, g2 int32) (score int, dcp TermID) {
	t1s, t2s := s.a.Terms(g1), s.a.Terms(g2)
	if len(t1s) == 0 || len(t2s) == 0 {
		return 0, 0
	}
	best := -1 << 30
	bestTerm := TermID(0)
	for _, t1 := range t1s {
		for _, t2 := range t2s {
			if p := s.pair(t1, t2); p.score > best {
				best, bestTerm = p.score, p.dcp
			}
		}
	}
	return best, bestTerm
}

// ClusterScore is the edge-enrichment summary of one cluster.
type ClusterScore struct {
	AEES          float64 // average edge enrichment score
	MaxEdgeScore  int     // deepest single edge score ("Max Score" in Fig 11)
	DominantTerm  TermID  // most frequent DCP among the cluster's edges
	DominantCount int     // how many edges share the dominant term
	Edges         int
}

// ScoreCluster annotates and scores every edge among the cluster's vertices
// (using the host graph for adjacency) and returns the cluster summary. The
// AEES of an edgeless cluster is 0.
func (s *Scorer) ScoreCluster(hasEdge func(u, v int32) bool, vertices []int32) ClusterScore {
	var cs ClusterScore
	sum := 0
	cs.MaxEdgeScore = -1 << 30
	for i := 0; i < len(vertices); i++ {
		for j := i + 1; j < len(vertices); j++ {
			u, v := vertices[i], vertices[j]
			if !hasEdge(u, v) {
				continue
			}
			sc, dcp := s.EdgeScore(u, v)
			sum += sc
			cs.Edges++
			s.tally(dcp)
			if sc > cs.MaxEdgeScore {
				cs.MaxEdgeScore = sc
			}
		}
	}
	if cs.Edges == 0 {
		cs.MaxEdgeScore = 0
		return cs
	}
	cs.AEES = float64(sum) / float64(cs.Edges)
	cs.DominantTerm, cs.DominantCount = s.dominant()
	return cs
}

// tally counts one edge annotated by term t.
func (s *Scorer) tally(t TermID) {
	if s.count == nil {
		s.count = make([]int32, s.d.NumTerms())
	}
	if s.count[t] == 0 {
		s.counted = append(s.counted, t)
	}
	s.count[t]++
}

// dominant returns the most counted term, ties to the lowest id, with its
// count, and resets the tally for the next cluster.
func (s *Scorer) dominant() (TermID, int) {
	best, bestCount := TermID(0), int32(0)
	for _, t := range s.counted {
		if c := s.count[t]; c > bestCount || (c == bestCount && t < best) {
			best, bestCount = t, c
		}
		s.count[t] = 0
	}
	s.counted = s.counted[:0]
	return best, int(bestCount)
}

// GenerateSpec configures the synthetic GO-like DAG.
type GenerateSpec struct {
	Depth        int     // number of levels below the root (default 10)
	Branch       int     // children per term at each level (default 3)
	CrossLinkPct float64 // fraction of terms given a second parent (default 0.1)
	Seed         int64
}

// Generate builds a synthetic levelled DAG. Level 0 is the root; each term
// at level l+1 has a primary parent at level l and, with probability
// CrossLinkPct, an extra parent at level ≤ l.
func Generate(spec GenerateSpec) *DAG {
	if spec.Depth <= 0 {
		spec.Depth = 10
	}
	if spec.Branch <= 0 {
		spec.Branch = 3
	}
	if spec.CrossLinkPct == 0 {
		spec.CrossLinkPct = 0.1
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	parents := [][]TermID{{}}
	levels := [][]TermID{{0}}
	// Cap per-level growth so deep DAGs stay small.
	const maxPerLevel = 256
	for l := 1; l <= spec.Depth; l++ {
		prev := levels[l-1]
		var cur []TermID
		want := len(prev) * spec.Branch
		if want > maxPerLevel {
			want = maxPerLevel
		}
		for i := 0; i < want; i++ {
			id := TermID(len(parents))
			p := prev[rng.Intn(len(prev))]
			ps := []TermID{p}
			if rng.Float64() < spec.CrossLinkPct {
				// Second parent from any earlier level.
				lv := rng.Intn(l)
				cand := levels[lv][rng.Intn(len(levels[lv]))]
				if cand != p {
					ps = append(ps, cand)
				}
			}
			if len(ps) == 2 && ps[1] < ps[0] {
				ps[0], ps[1] = ps[1], ps[0]
			}
			parents = append(parents, ps)
			cur = append(cur, id)
		}
		levels = append(levels, cur)
	}
	d, err := NewDAG(parents)
	if err != nil {
		panic("ontology: generator produced invalid DAG: " + err.Error())
	}
	return d
}

// LeafAtDepth returns a term drawn uniformly from those at exactly the
// given depth, or the deepest term (drawing nothing from rng) if none is
// that deep.
func (d *DAG) LeafAtDepth(depth int, rng *rand.Rand) TermID {
	return d.pickLeaf(d.termsAtDepth(depth), rng)
}

// termsAtDepth lists, in id order, the terms at exactly the given depth.
func (d *DAG) termsAtDepth(depth int) []TermID {
	var at []TermID
	for t := 0; t < d.NumTerms(); t++ {
		if int(d.depth[t]) == depth {
			at = append(at, TermID(t))
		}
	}
	return at
}

// pickLeaf is LeafAtDepth over a termsAtDepth list.
func (d *DAG) pickLeaf(at []TermID, rng *rand.Rand) TermID {
	if len(at) == 0 {
		best := TermID(0)
		for t := 0; t < d.NumTerms(); t++ {
			if d.depth[t] > d.depth[best] {
				best = TermID(t)
			}
		}
		return best
	}
	return at[rng.Intn(len(at))]
}

// AnnotateModules builds gene annotations where each planted module shares a
// deep "module term" (members get the term itself or one of its children),
// and every other gene receives 1–2 random shallow terms. This reproduces the
// property the paper's validation relies on: real co-expression clusters are
// enriched for deep common ancestry, noise clusters are not.
//
// The draws are recorded in order, then laid out per gene in one backing
// array, so each gene's term list is what Annotate would have built from the
// same draws without a slice allocation per gene.
func AnnotateModules(d *DAG, numGenes int, modules [][]int32, moduleDepth int, seed int64) *Annotations {
	type draw struct {
		g int32
		t TermID
	}
	rng := rand.New(rand.NewSource(seed))
	draws := make([]draw, 0, 2*numGenes)
	annotated := make([]bool, numGenes)
	at := d.termsAtDepth(moduleDepth)
	for _, mod := range modules {
		mt := d.pickLeaf(at, rng)
		kids := d.Children(mt)
		for _, g := range mod {
			// Module term or one of its children: DCP of any member pair is
			// at least mt (deep), breadth ≤ 2.
			t := mt
			if len(kids) > 0 && rng.Float64() < 0.5 {
				t = kids[rng.Intn(len(kids))]
			}
			draws = append(draws, draw{g, t})
			annotated[g] = true
		}
	}
	// Background genes: shallow random terms (depth ≤ 3).
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
			draws = append(draws, draw{int32(g), shallow[rng.Intn(len(shallow))]})
		}
	}
	// Gene g's terms live in back[start[g]:end[g]], first draw first, with
	// repeats dropped as Annotate drops them.
	start := make([]int32, numGenes+1)
	for _, dr := range draws {
		start[dr.g+1]++
	}
	for g := 0; g < numGenes; g++ {
		start[g+1] += start[g]
	}
	end := append([]int32(nil), start[:numGenes]...)
	back := make([]TermID, len(draws))
	for _, dr := range draws {
		if !slices.Contains(back[start[dr.g]:end[dr.g]], dr.t) {
			back[end[dr.g]] = dr.t
			end[dr.g]++
		}
	}
	// Every gene drew at least one term. Each list is capped, so an Annotate
	// on the result copies before it appends.
	a := NewAnnotations(numGenes)
	for g := range a.terms {
		a.terms[g] = back[start[g]:end[g]:end[g]]
	}
	return a
}
