package chordal

import (
	"slices"

	"parsample/internal/graph"
)

// MCSOrder runs maximum cardinality search on g and returns the visit order.
// If g is chordal, the reverse of the visit order is a perfect elimination
// ordering.
func MCSOrder(g *graph.Graph) []int32 {
	n := g.N()
	weight := make([]int, n)
	visited := make([]bool, n)
	// Bucket queue over weights for O(n + m).
	buckets := make([][]int32, n+1)
	for v := int32(0); int(v) < n; v++ {
		buckets[0] = append(buckets[0], v)
	}
	maxW := 0
	order := make([]int32, 0, n)
	for len(order) < n {
		// Find the highest non-empty bucket at or below maxW.
		var v int32 = -1
		for maxW >= 0 {
			bk := buckets[maxW]
			for len(bk) > 0 {
				cand := bk[len(bk)-1]
				bk = bk[:len(bk)-1]
				if !visited[cand] && weight[cand] == maxW {
					v = cand
					break
				}
			}
			buckets[maxW] = bk
			if v >= 0 {
				break
			}
			maxW--
		}
		if v < 0 {
			break // should not happen
		}
		visited[v] = true
		order = append(order, v)
		for _, w := range g.Neighbors(v) {
			if !visited[w] {
				weight[w]++
				buckets[weight[w]] = append(buckets[weight[w]], w)
				if weight[w] > maxW {
					maxW = weight[w]
				}
			}
		}
	}
	return order
}

// IsChordal reports whether g is chordal, using MCS followed by the
// Tarjan–Yannakakis perfect elimination ordering check (overall O(n + m)).
func IsChordal(g *graph.Graph) bool {
	order := MCSOrder(g)
	return IsPerfectEliminationOrdering(g, reversed(order))
}

// IsPerfectEliminationOrdering reports whether elim is a perfect elimination
// ordering of g: for every vertex v, the neighbors of v that appear *later*
// in elim form a clique. Implemented with the standard parent-check in
// O(n + m): for each v with later-neighbors RN(v) and parent p(v) = the
// earliest member of RN(v), verify RN(v) \ {p(v)} ⊆ RN(p(v)).
func IsPerfectEliminationOrdering(g *graph.Graph, elim []int32) bool {
	n := g.N()
	if !graph.IsPermutation(elim, n) {
		return false
	}
	pos := graph.InversePerm(elim)
	// later[v] = neighbors of v that come after v in elim.
	later := make([][]int32, n)
	for v := int32(0); int(v) < n; v++ {
		for _, w := range g.Neighbors(v) {
			if pos[w] > pos[v] {
				later[v] = append(later[v], w)
			}
		}
	}
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	for idx := 0; idx < n; idx++ {
		v := elim[idx]
		rn := later[v]
		if len(rn) <= 1 {
			continue
		}
		// Parent = earliest later-neighbor.
		p := rn[0]
		for _, w := range rn[1:] {
			if pos[w] < pos[p] {
				p = w
			}
		}
		for _, w := range later[p] {
			mark[w] = int32(idx)
		}
		mark[p] = int32(idx) // p itself is trivially fine
		for _, w := range rn {
			if w != p && mark[w] != int32(idx) {
				return false
			}
		}
	}
	return true
}

// IsMaximalChordalSubgraph reports whether sub (a subgraph of g over the same
// vertex set) is chordal and maximal: adding any edge of g not in sub breaks
// chordality. Intended for tests on small graphs (it re-runs the chordality
// test once per excluded edge).
func IsMaximalChordalSubgraph(g, sub *graph.Graph) bool {
	if !IsChordal(sub) {
		return false
	}
	subEdges := sub.Edges()
	maximal := true
	g.ForEachEdge(func(u, v int32) {
		if !maximal || sub.HasEdge(u, v) {
			return
		}
		// Clip forces append to copy, leaving subEdges intact.
		if IsChordal(graph.FromEdges(g.N(), append(slices.Clip(subEdges), graph.Edge{U: u, V: v}))) {
			maximal = false
		}
	})
	return maximal
}

func reversed(s []int32) []int32 {
	out := make([]int32, len(s))
	for i, v := range s {
		out[len(s)-1-i] = v
	}
	return out
}
