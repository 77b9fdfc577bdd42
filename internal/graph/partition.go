package graph

import "slices"

// Partition assigns each vertex to one of P parts. Part ids are dense in
// [0, P).
type Partition struct {
	Part  []int32   // Part[v] = part id of vertex v
	Parts [][]int32 // Parts[p] = vertices of part p, in processing order
	Index []int32   // Index[v] = position of v in Parts[Part[v]]
}

// P returns the number of parts.
func (pt *Partition) P() int { return len(pt.Parts) }

// BlockPartition splits the processing order into P contiguous, nearly equal
// blocks, mirroring the paper's distribution of the (ordered) network across
// processors. P must be ≥ 1 and ≤ len(order) unless the order is empty.
func BlockPartition(order []int32, p int) *Partition {
	n := len(order)
	if p < 1 {
		p = 1
	}
	if p > n && n > 0 {
		p = n
	}
	pt := &Partition{
		Part:  make([]int32, n),
		Parts: make([][]int32, p),
		Index: make([]int32, n),
	}
	for i := 0; i < p; i++ {
		lo, hi := i*n/p, (i+1)*n/p
		blk := make([]int32, hi-lo)
		copy(blk, order[lo:hi])
		pt.Parts[i] = blk
		for j, v := range blk {
			pt.Part[v] = int32(i)
			pt.Index[v] = int32(j)
		}
	}
	return pt
}

// BorderEdges returns the edges of g whose endpoints lie in different parts.
func (pt *Partition) BorderEdges(g *Graph) []Edge {
	var out []Edge
	g.ForEachEdge(func(u, v int32) {
		if pt.Part[u] != pt.Part[v] {
			out = append(out, Edge{u, v})
		}
	})
	return out
}

// InternalEdgeCount returns, per part, the number of edges fully inside the
// part, plus the total number of border edges.
func (pt *Partition) InternalEdgeCount(g *Graph) (internal []int, border int) {
	internal = make([]int, pt.P())
	g.ForEachEdge(func(u, v int32) {
		if pt.Part[u] == pt.Part[v] {
			internal[pt.Part[u]]++
		} else {
			border++
		}
	})
	return internal, border
}

// Induced returns the subgraph of g induced by part p in block-local ids:
// Parts[p][i] is vertex i. Its scratch is linear in the block, not in g.
// Row i is filled by walking the block in local-id order and appending j
// to the row of each in-block neighbor of local vertex j, so every row
// comes out ascending with no sort.
func (pt *Partition) Induced(g *Graph, p int) *Graph {
	block := pt.Parts[p]
	k := len(block)
	sub := &Graph{off: make([]int32, k+1)}
	for i, u := range block {
		d := int32(0)
		for _, v := range g.Neighbors(u) {
			if pt.Part[v] == int32(p) {
				d++
			}
		}
		sub.off[i+1] = sub.off[i] + d
	}
	sub.nbr = make([]int32, sub.off[k])
	cursor := slices.Clone(sub.off[:k])
	for j, u := range block {
		for _, v := range g.Neighbors(u) {
			if pt.Part[v] == int32(p) {
				i := pt.Index[v]
				sub.nbr[cursor[i]] = int32(j)
				cursor[i]++
			}
		}
	}
	sub.m = len(sub.nbr) / 2
	return sub
}
