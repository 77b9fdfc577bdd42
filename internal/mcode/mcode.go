// Package mcode implements the MCODE clustering algorithm (Bader & Hogue,
// BMC Bioinformatics 2003), the algorithm behind AllegroMCODE which the
// paper uses to identify gene clusters: vertices are weighted by the density
// of the highest k-core of their neighborhood, complexes grow from seed
// vertices by a weight-percentage rule, and clusters are scored by
// density × size. The paper keeps clusters with score ≥ 3.0.
package mcode

import (
	"cmp"
	"context"
	"math"
	"runtime"
	"slices"
	"sync"

	"parsample/internal/graph"
)

// Params configures MCODE. Zero values select the defaults the paper used
// (AllegroMCODE 1.0 default parameters).
type Params struct {
	// VertexWeightPercentage (node score cutoff): a neighbor u joins a
	// complex seeded at s when weight(u) > weight(s)·(1−VWP). Default 0.2.
	VertexWeightPercentage float64
	// Haircut removes vertices with fewer than 2 connections inside the
	// complex. Default true (matches MCODE defaults).
	Haircut bool
	// MinScore filters reported clusters; the paper analyzed clusters with
	// score ≥ 3.0 (lower scores "tend to indicate small cliques, or K3").
	MinScore float64
	// MinSize filters clusters smaller than this many vertices. Default 4
	// (a K3 scores exactly 3.0; the paper excludes plain triangles).
	MinSize int
	// Fluff optionally expands each complex after the haircut: a neighbor
	// u of the complex is added when the density of u's closed neighborhood
	// exceeds FluffDensityThreshold. Fluffed vertices may appear in several
	// complexes (MCODE's fluff semantics). Off by default, as in the paper.
	Fluff bool
	// FluffDensityThreshold defaults to 0.1 when Fluff is set.
	FluffDensityThreshold float64
}

func (p Params) withDefaults() Params {
	if p.VertexWeightPercentage == 0 {
		p.VertexWeightPercentage = 0.2
	}
	if p.MinScore == 0 {
		p.MinScore = 3.0
	}
	if p.MinSize == 0 {
		p.MinSize = 4
	}
	if p.Fluff && p.FluffDensityThreshold == 0 {
		p.FluffDensityThreshold = 0.1
	}
	return p
}

// DefaultParams returns the paper's MCODE configuration.
func DefaultParams() Params {
	return Params{VertexWeightPercentage: 0.2, Haircut: true, MinScore: 3.0, MinSize: 4}
}

// Cluster is one predicted complex.
type Cluster struct {
	ID       int
	Vertices []int32 // sorted
	Edges    int
	Density  float64 // 2E / (V(V-1))
	Score    float64 // Density × V
	Seed     int32   // seed vertex the complex grew from
}

// NodeSet returns the cluster's vertices as a set.
func (c *Cluster) NodeSet() map[int32]bool {
	s := make(map[int32]bool, len(c.Vertices))
	for _, v := range c.Vertices {
		s[v] = true
	}
	return s
}

// peelScratch holds the Batagelj–Zaversnik peel arrays, reused across
// peels.
type peelScratch struct {
	deg, bin, pos, vert []int32
}

// resize returns s with length n, reallocating only when it is too short.
// The contents are not cleared.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// coreNumbers peels the CSR graph (off, adj) on n vertices — the
// Batagelj–Zaversnik bucket peel, O(n + m) — and returns every vertex's
// core number. The result aliases the scratch and is valid until the next
// call.
func (s *peelScratch) coreNumbers(off, adj []int32, n int) []int32 {
	deg := resize(s.deg, n)
	maxDeg := int32(0)
	for v := 0; v < n; v++ {
		deg[v] = off[v+1] - off[v]
		maxDeg = max(maxDeg, deg[v])
	}
	// Bucket sort vertices by degree.
	bin := resize(s.bin, int(maxDeg)+2)
	clear(bin)
	for _, d := range deg {
		bin[d]++
	}
	start := int32(0)
	for d := range bin[:maxDeg+1] {
		c := bin[d]
		bin[d] = start
		start += c
	}
	pos, vert := resize(s.pos, n), resize(s.vert, n)
	for v, d := range deg {
		pos[v] = bin[d]
		vert[pos[v]] = int32(v)
		bin[d]++
	}
	for d := maxDeg; d > 0; d-- {
		bin[d] = bin[d-1]
	}
	bin[0] = 0
	// A vertex's degree is final (its core number) once it is peeled: later
	// peels only lower neighbors of strictly larger degree.
	for _, v := range vert {
		for _, u := range adj[off[v]:off[v+1]] {
			if deg[u] > deg[v] {
				du, pu := deg[u], pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				deg[u]--
			}
		}
	}
	s.deg, s.bin, s.pos, s.vert = deg, bin, pos, vert
	return deg
}

// vertexWeightsContext computes the MCODE weight of every vertex: the core
// number k of the highest k-core of the vertex's closed neighborhood,
// multiplied by the density of that k-core subgraph. Vertices are
// independent, so GOMAXPROCS workers split them; each worker owns one
// weightScratch, so no vertex allocates, and each weight depends only on
// the graph. Each worker polls ctx every 64 vertices (one vertex weight is
// at most a neighborhood k-core extraction, so the poll interval stays well
// under a millisecond of work) and bails once cancellation is observed.
func vertexWeightsContext(ctx context.Context, g *graph.Graph) ([]float64, error) {
	n := g.N()
	w := make([]float64, n)
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			s := newWeightScratch(g)
			done := 0
			for v := int32(k); int(v) < n; v += int32(workers) {
				if done%64 == 0 && ctx.Err() != nil {
					return
				}
				done++
				w[v] = s.weight(v)
			}
		}(k)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return w, nil
}

// weightScratch is one worker's reusable neighborhood state: a stamp/local
// id relabelling of the current vertex's neighbors, the edges among them,
// its closed neighborhood as a local CSR, and the peel arrays. Not safe
// for concurrent use.
type weightScratch struct {
	g        *graph.Graph
	stamp    []int32 // stamp[u] == cur marks u as a neighbor of the current vertex
	local    []int32 // local id of a stamped vertex
	cur      int32
	pairs    []int32 // edges among the neighbors, as local id pairs
	off, adj []int32
	peel     peelScratch
}

func newWeightScratch(g *graph.Graph) *weightScratch {
	return &weightScratch{g: g, stamp: make([]int32, g.N()), local: make([]int32, g.N())}
}

// neighborEdges finds the edges among the neighbors of v, one per triangle
// through v. It stamps N(v) with local ids 1..d and, for each neighbor u,
// scans u's sorted row from its tail while x > u, so each neighbor pair is
// probed from its smaller end only; entries above v's largest neighbor
// cost a compare and no stamp probe. The edges land in s.pairs; it returns
// how many there are.
func (s *weightScratch) neighborEdges(v int32) int {
	s.pairs = s.pairs[:0]
	nb := s.g.Neighbors(v)
	if len(nb) < 2 {
		return 0
	}
	s.cur++
	for i, u := range nb {
		s.stamp[u] = s.cur
		s.local[u] = int32(i + 1)
	}
	top := nb[len(nb)-1]
	for i, u := range nb[:len(nb)-1] {
		row := s.g.Neighbors(u)
		for j := len(row) - 1; j >= 0 && row[j] > u; j-- {
			if x := row[j]; x <= top && s.stamp[x] == s.cur {
				s.pairs = append(s.pairs, int32(i+1), s.local[x])
			}
		}
	}
	return len(s.pairs) / 2
}

// induce lays out the closed neighborhood N[v] of a degree-d vertex as a
// local CSR in s.off/s.adj, from the pairs of the last neighborEdges(v):
// local vertex 0 is v, adjacent to every neighbor, and neighbor i is
// adjacent to v and to its partners in s.pairs. Rows are unordered; core
// numbers do not depend on row order. It returns |N[v]| = d+1.
func (s *weightScratch) induce(d int) int {
	n := d + 1
	off := resize(s.off, n+1)
	// Row lengths, then their exclusive prefix sums: off[i] is row i's start.
	off[0] = int32(d)
	for i := 1; i < n; i++ {
		off[i] = 1
	}
	for _, a := range s.pairs {
		off[a]++
	}
	sum := int32(0)
	for i, c := range off[:n] {
		off[i] = sum
		sum += c
	}
	// Filling advances each row's start to its end, the next row's start.
	adj := resize(s.adj, int(sum))
	for i := int32(1); i < int32(n); i++ {
		adj[off[0]], adj[off[i]] = i, 0
		off[0]++
		off[i]++
	}
	for k := 0; k < len(s.pairs); k += 2 {
		a, b := s.pairs[k], s.pairs[k+1]
		adj[off[a]], adj[off[b]] = b, a
		off[a]++
		off[b]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	s.off, s.adj = off, adj
	return n
}

// weight computes the MCODE weight of v. When no two neighbors of v are
// adjacent, N[v] is a star: its highest core is k = 1 with d+1 vertices
// and d edges, and the weight is 1·2d/((d+1)·d). That is evaluated with the
// general path's float operations in its order (the factor k = 1 is
// exact), so it is bit-identical without building or peeling N[v]. Only
// vertices on a triangle build and peel their neighborhood.
func (s *weightScratch) weight(v int32) float64 {
	d := s.g.Degree(v)
	if d == 0 {
		return 0
	}
	if s.neighborEdges(v) == 0 {
		return 2 * float64(d) / (float64(d+1) * float64(d))
	}
	nn := s.induce(d)
	core := s.peel.coreNumbers(s.off, s.adj, nn)
	// N[v] holds a triangle, so k ≥ 2 and the highest k-core has at least
	// k+1 vertices: the density below never divides by zero.
	k := slices.Max(core)
	// The highest k-core: its vertices, and its edges counted from both
	// ends.
	verts, ends := 0, 0
	for lv, c := range core {
		if c != k {
			continue
		}
		verts++
		for _, x := range s.adj[s.off[lv]:s.off[lv+1]] {
			if core[x] == k {
				ends++
			}
		}
	}
	density := 2 * float64(ends/2) / (float64(verts) * float64(verts-1))
	return float64(k) * density
}

// FindClustersContext runs MCODE complex prediction on g and returns
// clusters passing the score/size filters, highest score first. g is only
// read. The dominant vertex-weight pass polls ctx in every worker and the
// seed-growth loop polls between seeds, so cancellation returns promptly
// with ctx.Err() and no partial cluster list.
func FindClustersContext(ctx context.Context, g *graph.Graph, p Params) ([]Cluster, error) {
	p = p.withDefaults()
	n := g.N()
	weights, err := vertexWeightsContext(ctx, g)
	if err != nil {
		return nil, err
	}

	// Seeds in decreasing weight order, ties by id: a stable radix sort of
	// the complemented weight bits (monotone in a non-negative float64)
	// over ids listed in ascending order. Only vertices of positive weight
	// are seeds. A zero-weight vertex never starts a complex, and it is
	// never activated by the forest skip either: that skip is on only when
	// 0 < VWP < 1, so every threshold w·(1−VWP) of a positive seed weight
	// w is positive and no zero weight exceeds it.
	keys := make([]uint64, 0, n)
	seeds := make([]int32, 0, n)
	for v, w := range weights {
		if w > 0 {
			keys = append(keys, ^math.Float64bits(w))
			seeds = append(seeds, int32(v))
		}
	}
	graph.RadixSort(keys, seeds)

	// The forest skip needs thresholds that fall with the seed weights and,
	// up to rounding, stay below them: 0 < VWP < 1. A seed that still fails
	// its own threshold is never active and grows as usual. An empty
	// haircut is only predictable when the haircut runs.
	vwp := p.VertexWeightPercentage
	l := newSeedLoop(g, weights, p.Haircut && vwp > 0 && vwp < 1)
	var fluffer *weightScratch
	if p.Fluff {
		fluffer = newWeightScratch(g)
	}
	var clusters []Cluster
	next := 0 // seeds[:next] are active unless used (forest skip only)
	for si, seed := range seeds {
		if si%256 == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if l.used[seed] {
			continue
		}
		threshold := weights[seed] * (1 - vwp)
		if l.forestSkip {
			for ; next < len(seeds) && weights[seeds[next]] > threshold; next++ {
				if !l.used[seeds[next]] {
					l.activate(seeds[next])
				}
			}
			if l.inForest(seed) {
				continue
			}
		}
		grown := l.grow(seed, threshold)
		members := grown
		if p.Haircut {
			if members = l.haircut(grown); len(members) == 0 {
				continue
			}
		}
		for _, v := range members {
			l.used[v] = true
		}
		if l.forestSkip {
			l.regroup(grown)
		}
		slices.Sort(members)
		if p.Fluff {
			// Fluffed vertices are not marked used: they may join several
			// complexes, as in MCODE.
			members = fluff(g, fluffer, members, p.FluffDensityThreshold, l.in)
		}
		c := scoreCluster(g, members, l.in)
		if len(c.Vertices) >= p.MinSize && c.Score >= p.MinScore {
			c.Vertices = slices.Clone(c.Vertices)
			c.Seed = seed
			clusters = append(clusters, c)
		}
	}
	slices.SortStableFunc(clusters, func(a, b Cluster) int { return cmp.Compare(b.Score, a.Score) })
	for i := range clusters {
		clusters[i].ID = i
	}
	return clusters, nil
}

// seedLoop is the per-call state of the seed loop: the used marks, the
// grow/haircut scratch, and — when the forest skip is on — a union-find
// over the active vertices {u : !used[u], weight(u) > threshold}.
//
// The complex grown from an active seed is its union-find component, and
// its haircut (the 2-core) is empty exactly when that component is a
// forest, i.e. has fewer edges than vertices. Such seeds are skipped
// without growing. Thresholds never rise (seeds run in weight-descending
// order), so vertices only join the active set, lazily in seed order, or
// leave it by being marked used; after a complex is marked used,
// regroup rebuilds the union-find over the grown component alone, since
// every active neighbor of that component lies inside it.
type seedLoop struct {
	g       *graph.Graph
	weights []float64
	used    []bool
	in      graph.Bitset // membership scratch, received and returned clean
	deg     []int32      // haircut degrees, indexed by vertex
	members []int32      // the grown complex, reused across seeds
	kept    []int32      // the haircut survivors, reused across seeds
	stack   []int32      // haircut worklist

	forestSkip bool
	parent     []int32 // union-find parent; -1 marks an inactive vertex
	verts      []int32 // vertex count of a root's component
	edges      []int32 // edge count of a root's component
}

func newSeedLoop(g *graph.Graph, weights []float64, forestSkip bool) *seedLoop {
	n := g.N()
	l := &seedLoop{
		g:          g,
		weights:    weights,
		used:       make([]bool, n),
		in:         graph.NewBitset(n),
		deg:        make([]int32, n),
		forestSkip: forestSkip,
	}
	if forestSkip {
		l.parent = make([]int32, n)
		for i := range l.parent {
			l.parent[i] = -1
		}
		l.verts = make([]int32, n)
		l.edges = make([]int32, n)
	}
	return l
}

func (l *seedLoop) find(v int32) int32 {
	for l.parent[v] != v {
		l.parent[v] = l.parent[l.parent[v]]
		v = l.parent[v]
	}
	return v
}

// join records the edge {a, b} between two active vertices.
func (l *seedLoop) join(a, b int32) {
	ra, rb := l.find(a), l.find(b)
	if ra != rb {
		if l.verts[ra] < l.verts[rb] {
			ra, rb = rb, ra
		}
		l.parent[rb] = ra
		l.verts[ra] += l.verts[rb]
		l.edges[ra] += l.edges[rb]
	}
	l.edges[ra]++
}

// activate adds v to the active set, joining it to its active neighbors.
func (l *seedLoop) activate(v int32) {
	l.parent[v], l.verts[v], l.edges[v] = v, 1, 0
	for _, u := range l.g.Neighbors(v) {
		if l.parent[u] >= 0 {
			l.join(v, u)
		}
	}
}

// inForest reports whether seed is active and its component is a forest,
// so its complex would be haircut to nothing.
func (l *seedLoop) inForest(seed int32) bool {
	if l.parent[seed] < 0 {
		return false
	}
	r := l.find(seed)
	return l.edges[r] < l.verts[r]
}

// regroup rebuilds the union-find over a grown complex after part of it
// was marked used: used vertices turn inactive and the rest re-form their
// components. grown covers every component it touches, so no other
// vertex's component changes.
func (l *seedLoop) regroup(grown []int32) {
	for _, v := range grown {
		switch {
		case l.parent[v] < 0:
		case l.used[v]:
			l.parent[v] = -1
		default:
			l.parent[v], l.verts[v], l.edges[v] = v, 1, 0
		}
	}
	for _, v := range grown {
		if l.parent[v] < 0 {
			continue
		}
		for _, u := range l.g.Neighbors(v) {
			if v < u && l.parent[u] >= 0 {
				l.join(v, u)
			}
		}
	}
}

// grow BFS-expands from seed, admitting unused vertices whose weight
// exceeds the threshold, and returns the members in BFS order.
func (l *seedLoop) grow(seed int32, threshold float64) []int32 {
	in := l.in
	in.Set(seed)
	members := append(l.members[:0], seed)
	for i := 0; i < len(members); i++ {
		for _, u := range l.g.Neighbors(members[i]) {
			if l.used[u] || in.Has(u) || l.weights[u] <= threshold {
				continue
			}
			in.Set(u)
			members = append(members, u)
		}
	}
	for _, v := range members {
		in.Clear(v)
	}
	l.members = members
	return members
}

// haircut returns the 2-core of the complex: vertices with fewer than 2
// connections inside are peeled off a worklist, each once, so the cost is
// O(|members| + internal edges). The 2-core is unique, so the peel order
// does not matter. The survivors keep the order of members.
func (l *seedLoop) haircut(members []int32) []int32 {
	in, deg := l.in, l.deg
	for _, v := range members {
		in.Set(v)
	}
	stack := l.stack[:0]
	for _, v := range members {
		d := int32(0)
		for _, u := range l.g.Neighbors(v) {
			if in.Has(u) {
				d++
			}
		}
		if deg[v] = d; d < 2 {
			stack = append(stack, v)
		}
	}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		in.Clear(v)
		for _, u := range l.g.Neighbors(v) {
			if in.Has(u) {
				// Push on the 2 → 1 drop only, so no vertex is pushed twice.
				if deg[u]--; deg[u] == 1 {
					stack = append(stack, u)
				}
			}
		}
	}
	kept := l.kept[:0]
	for _, v := range members {
		if in.Has(v) {
			kept = append(kept, v)
			in.Clear(v)
		}
	}
	l.stack, l.kept = stack, kept
	return kept
}

// fluff adds complex neighbors whose closed-neighborhood density exceeds the
// threshold. Returns a fresh sorted, deduplicated member list. in is the
// shared scratch bitset (received clean, returned clean).
func fluff(g *graph.Graph, s *weightScratch, members []int32, threshold float64, in graph.Bitset) []int32 {
	for _, v := range members {
		in.Set(v)
	}
	out := slices.Clone(members)
	for _, v := range members {
		for _, u := range g.Neighbors(v) {
			if in.Has(u) {
				continue
			}
			// u is a neighbor, so N[u] has nn ≥ 2 vertices, and d edges at
			// u plus those among its neighbors.
			d := g.Degree(u)
			nn := d + 1
			density := 2 * float64(d+s.neighborEdges(u)) / (float64(nn) * float64(nn-1))
			if density > threshold {
				in.Set(u)
				out = append(out, u)
			}
		}
	}
	for _, v := range out {
		in.Clear(v)
	}
	slices.Sort(out)
	return out
}

// scoreCluster counts internal edges with a membership bit probe per
// neighbor. in is the shared scratch bitset (received clean, returned
// clean). The returned Vertices alias members.
func scoreCluster(g *graph.Graph, members []int32, in graph.Bitset) Cluster {
	for _, v := range members {
		in.Set(v)
	}
	edges := 0
	for _, v := range members {
		for _, u := range g.Neighbors(v) {
			if v < u && in.Has(u) {
				edges++
			}
		}
	}
	for _, v := range members {
		in.Clear(v)
	}
	c := Cluster{Vertices: members, Edges: edges}
	nn := len(members)
	if nn >= 2 {
		c.Density = 2 * float64(edges) / (float64(nn) * float64(nn-1))
		c.Score = c.Density * float64(nn)
	}
	return c
}
