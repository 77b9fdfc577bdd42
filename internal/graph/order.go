package graph

import (
	"fmt"
	"math/rand"
	"slices"
)

// Ordering names one of the vertex-processing orders studied in the paper
// (Section III.A, "Effect of Vertex Ordering").
type Ordering int

const (
	// Natural is the original order of the vertices (gene nomenclature order).
	Natural Ordering = iota
	// HighDegree processes vertices in descending order of degree.
	HighDegree
	// LowDegree processes vertices in ascending order of degree.
	LowDegree
	// RCM orders vertices by Reverse Cuthill-McKee to reduce adjacency
	// bandwidth, numbering closely connected vertices consecutively.
	RCM
	// RandomOrder is a seeded uniformly random permutation (used for
	// perturbation experiments beyond the paper's four orders).
	RandomOrder
)

// String returns the abbreviation used in the paper's figures.
func (o Ordering) String() string {
	switch o {
	case Natural:
		return "NO"
	case HighDegree:
		return "HD"
	case LowDegree:
		return "LD"
	case RCM:
		return "RCM"
	case RandomOrder:
		return "RAND"
	}
	return fmt.Sprintf("Ordering(%d)", int(o))
}

// AllOrderings lists the four orderings evaluated in the paper.
var AllOrderings = []Ordering{Natural, HighDegree, LowDegree, RCM}

// Order returns the processing sequence for g under o: order[i] is the vertex
// processed i-th. seed is used only by RandomOrder.
func Order(g *Graph, o Ordering, seed int64) []int32 {
	n := g.N()
	switch o {
	case Natural:
		return NaturalOrder(n)
	case HighDegree:
		return DegreeOrder(g, false)
	case LowDegree:
		return DegreeOrder(g, true)
	case RCM:
		return ReverseCuthillMcKee(g)
	case RandomOrder:
		ord := NaturalOrder(n)
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(n, func(i, j int) { ord[i], ord[j] = ord[j], ord[i] })
		return ord
	}
	panic(fmt.Sprintf("graph: unknown ordering %d", int(o)))
}

// NaturalOrder returns the identity order 0..n-1.
func NaturalOrder(n int) []int32 {
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	return ord
}

// DegreeOrder returns vertices sorted by degree; ascending if asc, otherwise
// descending. Ties are broken by vertex id for determinism. It is a
// counting sort: ids are scanned in ascending order into one bucket per
// degree, so each bucket lists its vertices by id.
func DegreeOrder(g *Graph, asc bool) []int32 {
	n := g.N()
	maxDeg := g.MaxDegree()
	bucket := func(v int32) int {
		if asc {
			return g.Degree(v)
		}
		return maxDeg - g.Degree(v)
	}
	start := make([]int32, maxDeg+2)
	for v := range int32(n) {
		start[bucket(v)+1]++
	}
	for d := 1; d < len(start); d++ {
		start[d] += start[d-1]
	}
	ord := make([]int32, n)
	for v := range int32(n) {
		b := bucket(v)
		ord[start[b]] = v
		start[b]++
	}
	return ord
}

// ReverseCuthillMcKee computes the RCM ordering: BFS from a low-degree
// peripheral vertex per component with neighbors visited in increasing degree
// order, then the whole sequence reversed.
func ReverseCuthillMcKee(g *Graph) []int32 {
	n := g.N()
	visited := make([]bool, n)
	order := make([]int32, 0, n)
	// Process start candidates in increasing degree so each component is
	// entered at (approximately) a peripheral, low-degree vertex. A
	// vertex's rank in that order is its (degree, id) position, so a
	// frontier sorted by rank is sorted by degree with ties by id.
	starts := DegreeOrder(g, true)
	rank := InversePerm(starts)
	queue := make([]int32, 0, n)
	scratch := make([]int32, 0, 64)
	for _, s := range starts {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			scratch = scratch[:0]
			for _, w := range g.Neighbors(v) {
				if !visited[w] {
					visited[w] = true
					scratch = append(scratch, rank[w])
				}
			}
			slices.Sort(scratch)
			for _, r := range scratch {
				queue = append(queue, starts[r])
			}
		}
	}
	// Reverse.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order
}

// InversePerm returns pos such that pos[order[i]] = i.
func InversePerm(order []int32) []int32 {
	pos := make([]int32, len(order))
	for i, v := range order {
		pos[v] = int32(i)
	}
	return pos
}

// IsPermutation reports whether order is a permutation of 0..n-1.
func IsPermutation(order []int32, n int) bool {
	if len(order) != n {
		return false
	}
	seen := make([]bool, n)
	for _, v := range order {
		if v < 0 || int(v) >= n || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}
