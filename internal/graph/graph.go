// Package graph provides the undirected-graph substrate used by the
// parallel adaptive sampling algorithms: a compact CSR adjacency
// representation, vertex orderings, partitioning, generators and
// edge-list I/O.
//
// Vertices are dense int32 identifiers in [0, N). All graphs are simple
// (no self loops, no multi-edges) and undirected.
package graph

import (
	"fmt"
	"slices"
	"sync"
)

// Graph is an immutable simple undirected graph in compressed sparse row
// (CSR) form: one flat neighbor arena `nbr` plus per-vertex offsets `off`,
// so the neighbors of v are nbr[off[v]:off[v+1]], sorted ascending. The flat
// layout keeps the hot kernels (DSW, MCODE, BFS) on sequential memory and
// lets block partitions hand each simulated rank a contiguous arena slice.
//
// The zero value is an empty graph with no vertices.
type Graph struct {
	off []int32 // len N+1; off[0] = 0
	nbr []int32 // len 2M; row v = nbr[off[v]:off[v+1]], sorted
	m   int

	// Optional dense adjacency rows (bitset matrix) for O(1) HasEdgeFast,
	// built on demand by EnsureDense for small vertex universes.
	denseOnce sync.Once
	dense     []Bitset
}

// N returns the number of vertices.
func (g *Graph) N() int {
	if g.off == nil {
		return 0
	}
	return len(g.off) - 1
}

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

// Degree returns the degree of vertex v.
func (g *Graph) Degree(v int32) int { return int(g.off[v+1] - g.off[v]) }

// Neighbors returns the sorted neighbor list of v. The returned slice
// aliases the graph's CSR arena and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 { return g.nbr[g.off[v]:g.off[v+1]] }

// CSR exposes the raw offsets and neighbor arena for kernels that iterate
// adjacency without per-vertex slice headers (centrality BFS, partitioned
// ranks). Both slices are shared with the graph and must not be modified.
func (g *Graph) CSR() (off, nbr []int32) { return g.off, g.nbr }

// HasEdge reports whether the undirected edge {u, v} exists. Both endpoints
// are validated (out-of-range or equal endpoints report false) before the
// degree swap, so the swap always runs on valid vertices; the lookup then
// scans the smaller of the two adjacency rows. Kernels that already
// guarantee valid endpoints should use HasEdgeFast.
func (g *Graph) HasEdge(u, v int32) bool {
	if u == v || u < 0 || v < 0 || int(u) >= g.N() || int(v) >= g.N() {
		return false
	}
	return g.HasEdgeFast(u, v)
}

// HasEdgeFast is HasEdge without endpoint validation.
//
// Contract: 0 ≤ u, v < N and u ≠ v; violating it may panic or return
// garbage. When dense adjacency rows are present (EnsureDense) the test is
// a single bit probe; otherwise the smaller adjacency row is searched, so
// the degree swap happens before any row access. EnsureDense must not be
// called concurrently with HasEdgeFast (build dense rows before fanning
// out).
func (g *Graph) HasEdgeFast(u, v int32) bool {
	if g.dense != nil {
		return g.dense[u].Has(v)
	}
	// Degree swap first: scan the smaller row.
	du, dv := g.off[u+1]-g.off[u], g.off[v+1]-g.off[v]
	if dv < du {
		u, v = v, u
		du = dv
	}
	a := g.nbr[g.off[u] : g.off[u]+du]
	if len(a) <= 8 {
		for _, w := range a {
			if w == v {
				return true
			}
			if w > v {
				return false
			}
		}
		return false
	}
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(a) && a[lo] == v
}

// denseRowLimit caps the vertex count for dense adjacency rows and the
// other bitset-matrix structures; above it the worst-case n²/8-byte
// footprint stops paying for itself (at 16384 vertices a full matrix is
// 32 MiB).
const denseRowLimit = 1 << 14

// EnsureDense builds the dense bitset adjacency rows if the vertex universe
// is small enough (≤ denseRowLimit) and reports whether they are available.
// Safe to call multiple times; the build runs once. Call it before handing
// the graph to concurrent readers of HasEdgeFast/Row.
func (g *Graph) EnsureDense() bool {
	n := g.N()
	if n == 0 || n > denseRowLimit {
		return false
	}
	g.denseOnce.Do(func() {
		rows := make([]Bitset, n)
		words := (n + 63) >> 6
		arena := make([]uint64, n*words)
		for v := 0; v < n; v++ {
			rows[v] = Bitset(arena[v*words : (v+1)*words])
			for _, w := range g.Neighbors(int32(v)) {
				rows[v].Set(w)
			}
		}
		g.dense = rows
	})
	return true
}

// Row returns the dense adjacency bitset of v, or nil when dense rows have
// not been built (see EnsureDense). The row is shared and must not be
// modified.
func (g *Graph) Row(v int32) Bitset {
	if g.dense == nil {
		return nil
	}
	return g.dense[v]
}

// MaxDegree returns the largest vertex degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	d := int32(0)
	for v := 0; v+1 < len(g.off); v++ {
		if deg := g.off[v+1] - g.off[v]; deg > d {
			d = deg
		}
	}
	return int(d)
}

// Edge is an undirected edge normalized so that U < V.
type Edge struct{ U, V int32 }

// NormEdge returns the normalized form of the edge {u, v}.
func NormEdge(u, v int32) Edge {
	if u > v {
		u, v = v, u
	}
	return Edge{u, v}
}

// Edges returns all edges of g in sorted (U, V) order.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.m)
	g.ForEachEdge(func(u, v int32) { out = append(out, Edge{u, v}) })
	return out
}

// ForEachEdge calls fn once per undirected edge with u < v.
func (g *Graph) ForEachEdge(fn func(u, v int32)) {
	for u := 0; u+1 < len(g.off); u++ {
		for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
			if int32(u) < v {
				fn(int32(u), v)
			}
		}
	}
}

// EdgesEqual reports whether edges, normalized (U < V) and strictly
// ascending by CompareEdges, is exactly g's edge list, the list Edges
// returns. It allocates nothing.
func (g *Graph) EdgesEqual(edges []Edge) bool {
	if len(edges) != g.m {
		return false
	}
	i := 0
	for u := 0; u+1 < len(g.off); u++ {
		for _, v := range g.nbr[g.off[u]:g.off[u+1]] {
			if int32(u) < v {
				if edges[i] != (Edge{int32(u), v}) {
					return false
				}
				i++
			}
		}
	}
	return true
}

// String returns a short diagnostic description of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d}", g.N(), g.M())
}

// Builder accumulates edges and produces an immutable CSR Graph. Edges are
// staged in one flat append-only list; Build counting-sorts them into the
// CSR arena, then sorts and deduplicates each row exactly once. This is the
// single construction path for every graph in the library — generators,
// I/O, filters and subgraph extraction all funnel through it.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a builder for a graph with n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the undirected edge {u, v}. Self loops are ignored.
// Duplicates are tolerated and removed at Build time. AddEdge panics if
// either endpoint is out of range.
func (b *Builder) AddEdge(u, v int32) {
	if int(u) >= b.n || int(v) >= b.n || u < 0 || v < 0 {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.edges = append(b.edges, Edge{u, v})
}

// AddEdges stages a batch of undirected edges in one call: capacity for the
// whole batch is reserved up front, so bulk producers (the expr correlation
// engine, generators) avoid repeated append growth. Semantics are exactly
// AddEdge's — self loops are skipped, duplicates are removed at Build time,
// and an out-of-range endpoint panics.
func (b *Builder) AddEdges(edges []Edge) {
	b.Grow(len(edges))
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
}

// Grow reserves staging capacity for at least m additional edges.
func (b *Builder) Grow(m int) {
	b.edges = slices.Grow(b.edges, m)
}

// Build finalizes the CSR graph: a counting sort scatters both edge
// directions into the neighbor arena, then every row is sorted and
// deduplicated in place and the arena compacted. The builder must not be
// used after Build.
func (b *Builder) Build() *Graph {
	n := b.n
	g := &Graph{off: make([]int32, n+1)}
	if len(b.edges) == 0 {
		g.nbr = []int32{}
		b.edges = nil
		return g
	}
	// Pass 1: count both directions.
	counts := g.off[1:] // counts[v] accumulates deg(v) at off[v+1]
	for _, e := range b.edges {
		counts[e.U]++
		counts[e.V]++
	}
	// Prefix sums -> row offsets.
	for v := 1; v <= n; v++ {
		g.off[v] += g.off[v-1]
	}
	// Pass 2: scatter. cursor[v] tracks the next free slot of row v.
	nbr := make([]int32, g.off[n])
	cursor := make([]int32, n)
	copy(cursor, g.off[:n])
	for _, e := range b.edges {
		nbr[cursor[e.U]] = e.V
		cursor[e.U]++
		nbr[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	// Pass 3: sort + dedup each row, compacting the arena in place.
	w := int32(0)
	prevEnd := int32(0)
	for v := 0; v < n; v++ {
		row := nbr[prevEnd:g.off[v+1]]
		prevEnd = g.off[v+1]
		slices.Sort(row)
		for i, x := range row {
			if i == 0 || x != nbr[w-1] {
				nbr[w] = x
				w++
			}
		}
		g.off[v+1] = w
	}
	g.nbr = nbr[:w:w]
	g.m = int(w) / 2
	b.edges = nil
	return g
}

// FromEdges builds a graph with n vertices from the given edge list.
func FromEdges(n int, edges []Edge) *Graph {
	b := NewBuilder(n)
	b.Grow(len(edges))
	for _, e := range edges {
		b.AddEdge(e.U, e.V)
	}
	return b.Build()
}

// FromSortedEdges builds a graph with n vertices from edges that are
// normalized (U < V), in range and strictly ascending by CompareEdges, as
// a k-way merge of sorted edge lists yields them. Scattering such a list
// into the CSR leaves every row ascending — row v receives its smaller
// neighbors (edges (u, v), u < v) before its larger ones (edges (v, w)),
// each run in list order — so, unlike Builder.Build, no row is sorted or
// deduplicated. It panics if edges break that contract.
func FromSortedEdges(n int, edges []Edge) *Graph {
	g := &Graph{off: make([]int32, n+1), m: len(edges)}
	counts := g.off[1:]
	prev := Edge{-1, -1}
	for _, e := range edges {
		if e.U < 0 || e.U >= e.V || int(e.V) >= n || CompareEdges(prev, e) >= 0 {
			panic(fmt.Sprintf("graph: FromSortedEdges: edge (%d,%d) after (%d,%d) is not a strictly ascending normalized edge of a %d-vertex graph", e.U, e.V, prev.U, prev.V, n))
		}
		prev = e
		counts[e.U]++
		counts[e.V]++
	}
	for v := 1; v <= n; v++ {
		g.off[v] += g.off[v-1]
	}
	g.nbr = make([]int32, g.off[n])
	cursor := slices.Clone(g.off[:n])
	for _, e := range edges {
		g.nbr[cursor[e.U]] = e.V
		cursor[e.U]++
		g.nbr[cursor[e.V]] = e.U
		cursor[e.V]++
	}
	return g
}

// FromCSRArenas adopts pre-built CSR arenas as a graph without staging or
// sorting: off and nbr must be exactly the layout CSR() exposes (off[0] = 0,
// rows strictly ascending, both edge directions present). The slices are
// adopted, not copied — the caller must not modify them afterwards. This is
// the snapshot-decode path: a persisted graph's arenas are validated and
// aliased in place (possibly straight out of an mmap'd file) instead of
// paying a Builder pass.
//
// Validation is structural and O(n+m): offsets monotone and in range, every
// row strictly ascending with in-range, non-self endpoints, arena length
// even. It deliberately does not verify that the adjacency is symmetric —
// callers feed checksum-verified snapshots, so the check guards against
// codec bugs and truncation, not adversarial input.
func FromCSRArenas(off, nbr []int32) (*Graph, error) {
	if len(off) == 0 {
		if len(nbr) != 0 {
			return nil, fmt.Errorf("graph: CSR arenas with %d neighbors but no offsets", len(nbr))
		}
		return &Graph{}, nil
	}
	n := len(off) - 1
	if off[0] != 0 {
		return nil, fmt.Errorf("graph: CSR offsets start at %d, want 0", off[0])
	}
	if int(off[n]) != len(nbr) {
		return nil, fmt.Errorf("graph: CSR offsets end at %d but arena has %d entries", off[n], len(nbr))
	}
	if len(nbr)%2 != 0 {
		return nil, fmt.Errorf("graph: CSR arena length %d is odd (both edge directions must be present)", len(nbr))
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return nil, fmt.Errorf("graph: CSR offsets decrease at vertex %d", v)
		}
		if int(off[v+1]) > len(nbr) {
			return nil, fmt.Errorf("graph: CSR offset %d of vertex %d is beyond the %d-entry arena", off[v+1], v, len(nbr))
		}
		row := nbr[off[v]:off[v+1]]
		prev := int32(-1)
		for _, w := range row {
			if w <= prev || int(w) >= n || w == int32(v) {
				return nil, fmt.Errorf("graph: CSR row %d is not a strictly ascending neighbor list", v)
			}
			prev = w
		}
	}
	return &Graph{off: off, nbr: nbr, m: len(nbr) / 2}, nil
}

// Subgraph returns the subgraph induced by keep (original vertex ids are
// preserved; edges with an endpoint outside keep are dropped). keep must not
// contain duplicates.
func (g *Graph) Subgraph(keep []int32) *Graph {
	in := NewBitset(g.N())
	for _, v := range keep {
		in.Set(v)
	}
	b := NewBuilder(g.N())
	for _, u := range keep {
		for _, v := range g.Neighbors(u) {
			if u < v && in.Has(v) {
				b.AddEdge(u, v)
			}
		}
	}
	return b.Build()
}

// CompactSubgraph returns the subgraph induced by keep with vertices
// relabelled to 0..len(keep)-1 (in the order given), plus the local→global
// vertex map. It allocates O(g.N()) scratch; callers extracting many small
// neighborhoods should reuse a Localizer instead.
func (g *Graph) CompactSubgraph(keep []int32) (*Graph, []int32) {
	return g.NewLocalizer().Compact(keep)
}

// Localizer relabels vertex subsets of one graph into compact local id
// spaces. It owns O(N) scratch that is reused across Compact calls, making
// repeated subset extraction allocation-cheap. A Localizer is not safe for
// concurrent use; give each worker its own.
type Localizer struct {
	g     *Graph
	local []int32 // local id of v in the current Compact call
	stamp []int32 // generation tag guarding local[]
	cur   int32
}

// NewLocalizer returns a Localizer over g.
func (g *Graph) NewLocalizer() *Localizer {
	n := g.N()
	l := &Localizer{g: g, local: make([]int32, n), stamp: make([]int32, n)}
	for i := range l.stamp {
		l.stamp[i] = -1
	}
	return l
}

// Compact builds the induced subgraph of keep with vertices relabelled to
// 0..len(keep)-1 in the order given, plus the local→global map. keep must
// not contain duplicates.
func (l *Localizer) Compact(keep []int32) (*Graph, []int32) {
	l.cur++
	for i, v := range keep {
		l.local[v] = int32(i)
		l.stamp[v] = l.cur
	}
	b := NewBuilder(len(keep))
	for i, u := range keep {
		for _, v := range l.g.Neighbors(u) {
			if u < v && l.stamp[v] == l.cur {
				b.AddEdge(int32(i), l.local[v])
			}
		}
	}
	toGlobal := make([]int32, len(keep))
	copy(toGlobal, keep)
	return b.Build(), toGlobal
}
