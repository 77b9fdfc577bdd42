package chordal

import (
	"parsample/internal/graph"
)

// FillInCount measures how far g is from chordal: the number of fill edges
// added when eliminating vertices in reverse maximum-cardinality-search
// order (the classic elimination-game bound). It is 0 if and only if g is
// chordal, and grows with the number and length of chordless cycles — the
// quantitative version of the paper's "quasi-chordal subgraphs have a few
// large cycles across the partitions".
//
// Note this is an upper bound relative to the MCS order, not the (NP-hard)
// minimum fill-in; as a comparative diagnostic between two samplers on the
// same graph it is what we need.
//
// The elimination game needs dynamic adjacency (fill edges accumulate). On
// vertex universes up to fillInDenseLimit it is played on lazily allocated
// bitset rows, so the inner clique-completion loop is bit probes and sets;
// larger universes fall back to degree-sized hash rows, keeping memory
// O(M + fill) instead of O(n²/8).
func FillInCount(g *graph.Graph) int {
	n := g.N()
	if n == 0 {
		return 0
	}
	order := MCSOrder(g)
	// Eliminate in reverse MCS order: process vertices by ascending pos in
	// the elimination ordering = reverse of MCS visit order.
	elim := reversed(order)
	if n <= fillInDenseLimit {
		return fillInDense(g, elim)
	}
	return fillInSparse(g, elim)
}

// fillInDenseLimit bounds the vertex count for the bitset rows: every
// touched vertex carries an n/8-byte row, so at 16384 vertices the worst
// case is 32 MiB; beyond that the hash rows win on memory.
const fillInDenseLimit = 1 << 14

// fillInDense plays the elimination game on lazily allocated bitset rows.
func fillInDense(g *graph.Graph, elim []int32) int {
	n := g.N()
	// Working adjacency rows; row v is materialized on first use.
	adj := make([]graph.Bitset, n)
	row := func(v int32) graph.Bitset {
		if adj[v] == nil {
			adj[v] = graph.NewBitset(n)
			for _, w := range g.Neighbors(v) {
				adj[v].Set(w)
			}
		}
		return adj[v]
	}
	eliminated := graph.NewBitset(n)
	fill := 0
	var nb []int32
	for _, v := range elim {
		// Higher (not yet eliminated) neighbors of v must form a clique;
		// count and add the missing edges.
		nb = nb[:0]
		row(v).ForEach(func(w int32) {
			if !eliminated.Has(w) {
				nb = append(nb, w)
			}
		})
		for i := 0; i < len(nb); i++ {
			ra := row(nb[i])
			for j := i + 1; j < len(nb); j++ {
				b := nb[j]
				if !ra.Has(b) {
					ra.Set(b)
					row(b).Set(nb[i])
					fill++
				}
			}
		}
		eliminated.Set(v)
	}
	return fill
}

// fillInSparse plays the elimination game on degree-sized hash rows — the
// large-universe fallback, O(M + fill) memory.
func fillInSparse(g *graph.Graph, elim []int32) int {
	n := g.N()
	adj := make([]map[int32]struct{}, n)
	row := func(v int32) map[int32]struct{} {
		if adj[v] == nil {
			adj[v] = make(map[int32]struct{}, g.Degree(v))
			for _, w := range g.Neighbors(v) {
				adj[v][w] = struct{}{}
			}
		}
		return adj[v]
	}
	eliminated := make([]bool, n)
	fill := 0
	var nb []int32
	for _, v := range elim {
		nb = nb[:0]
		for w := range row(v) {
			if !eliminated[w] {
				//parsamplevet:ignore maporder nb feeds only the pairwise fill count below, which is order-insensitive (every unordered pair is visited exactly once regardless of nb's order)
				nb = append(nb, w)
			}
		}
		for i := 0; i < len(nb); i++ {
			ra := row(nb[i])
			for j := i + 1; j < len(nb); j++ {
				b := nb[j]
				if _, ok := ra[b]; !ok {
					ra[b] = struct{}{}
					row(b)[nb[i]] = struct{}{}
					fill++
				}
			}
		}
		eliminated[v] = true
	}
	return fill
}
