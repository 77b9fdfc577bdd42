package graph

import (
	"math/rand"
)

// Gnm returns a uniform random simple graph with n vertices and (up to) m
// edges, deterministic for a given seed.
func Gnm(n, m int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	maxEdges := n * (n - 1) / 2
	if m > maxEdges {
		m = maxEdges
	}
	seen := make(map[uint64]struct{}, m) // membership only, never iterated
	for len(seen) < m {
		u := int32(rng.Intn(n))
		v := int32(rng.Intn(n))
		k := EdgeKey(u, v)
		if _, dup := seen[k]; u == v || dup {
			continue
		}
		seen[k] = struct{}{}
		b.AddEdge(u, v)
	}
	return b.Build()
}

// Path returns the path graph 0-1-...-n-1.
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(int32(i), int32(i+1))
	}
	return b.Build()
}

// Cycle returns the cycle graph C_n.
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(int32(i), int32((i+1)%n))
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(int32(i), int32(j))
		}
	}
	return b.Build()
}

// Grid returns the rows×cols grid graph (useful as a highly non-chordal
// test case: every face is a chordless C4).
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// RMAT returns a recursive-matrix (R-MAT, Chakrabarti–Zhan–Faloutsos) graph
// over n = 2^scale vertices with (up to) edgeFactor·n distinct edges: each
// edge picks its endpoints by recursively descending into one of the four
// adjacency-matrix quadrants with probabilities (a, b, c, 1−a−b−c). Skewed
// quadrant weights produce the heavy-tailed degree distributions of real
// networks, which is what makes it the standard stress generator for the
// graph kernels. Passing a = b = c = 0 selects the Graph500 defaults
// (0.57, 0.19, 0.19). Self loops and duplicates are discarded, so the
// realized edge count can be slightly below the target; deterministic per
// seed.
func RMAT(scale uint, edgeFactor int, a, b, c float64, seed int64) *Graph {
	if a == 0 && b == 0 && c == 0 {
		a, b, c = 0.57, 0.19, 0.19
	}
	n := 1 << scale
	m := edgeFactor * n
	rng := rand.New(rand.NewSource(seed))
	bld := NewBuilder(n)
	bld.Grow(m)
	for i := 0; i < m; i++ {
		u, v := 0, 0
		for bit := 0; bit < int(scale); bit++ {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				v |= 1 << bit
			case r < a+b+c:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u != v {
			bld.AddEdge(int32(u), int32(v))
		}
	}
	return bld.Build()
}

// PreferentialAttachment returns a Barabási–Albert style scale-free graph:
// each new vertex attaches k edges to existing vertices with probability
// proportional to degree.
func PreferentialAttachment(n, k int, seed int64) *Graph {
	if k < 1 {
		k = 1
	}
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	// Repeated-endpoint list for degree-proportional sampling.
	targets := make([]int32, 0, 2*n*k)
	seed0 := k + 1
	if seed0 > n {
		seed0 = n
	}
	for i := 0; i < seed0; i++ {
		for j := i + 1; j < seed0; j++ {
			b.AddEdge(int32(i), int32(j))
			targets = append(targets, int32(i), int32(j))
		}
	}
	// picked keeps the attachment targets in draw order: the order they are
	// appended to targets feeds every later rng.Intn index, so iterating the
	// dedup map here would make the generated graph depend on map iteration
	// order — same seed, different graph (caught by parsamplevet/maporder).
	picked := make([]int32, 0, k)
	for v := seed0; v < n; v++ {
		picked = picked[:0]
		chosen := make(map[int32]bool, k)
		for len(chosen) < k {
			var t int32
			if len(targets) == 0 {
				t = int32(rng.Intn(v))
			} else {
				t = targets[rng.Intn(len(targets))]
			}
			if t != int32(v) && !chosen[t] {
				chosen[t] = true
				picked = append(picked, t)
			}
		}
		for _, t := range picked {
			b.AddEdge(int32(v), t)
			targets = append(targets, int32(v), t)
		}
	}
	return b.Build()
}

// ModuleSpec describes planted near-clique modules for synthetic correlation
// networks: Count modules, each with a uniform size in [MinSize, MaxSize],
// whose internal edges appear with probability Density.
type ModuleSpec struct {
	Count    int
	MinSize  int
	MaxSize  int
	Density  float64 // internal edge probability, e.g. 0.85
	NoiseDeg float64 // expected noisy edges per module vertex to the outside
	// Window controls id-space locality: when ≥ 1, each module's vertices
	// are drawn from a random contiguous id window of Window×size vertices,
	// modelling the locality real correlation networks inherit from probe /
	// gene-family nomenclature ordering (duplicate probes and co-regulated
	// paralogs sit adjacently in the natural gene order). When 0, module
	// vertices are scattered uniformly.
	Window int
	// NoiseClumps is the expected number of noise clumps attached to each
	// module: a triangle of mutually "co-expressed" noise vertices, each
	// anchored to a distinct module vertex. Correlation noise is clumpy —
	// noisy genes correlate with each other — and such clumps are dense
	// enough for MCODE to absorb them into the module's cluster in the
	// unfiltered network, diluting its AEES. The anchor edges sit on
	// chordless cycles, so the chordal filter cuts them and the filtered
	// cluster sheds the clump (the mechanism behind the paper's Figure 9
	// case study).
	NoiseClumps float64
}

// PlantedResult is a synthetic network with ground-truth planted modules.
type PlantedResult struct {
	G       *Graph
	Modules [][]int32 // vertex sets of the planted modules
}

// PlantedModules builds a synthetic thresholded correlation network: sparse
// random background edges (coincidental correlations) plus embedded
// near-clique modules (real co-expression clusters) with NoiseDeg noisy
// attachment edges per module vertex.
//
// Modules are placed first and background edges are drawn among non-module
// vertices: at stringent correlation thresholds (the paper uses ρ ≥ 0.95),
// spurious correlations concentrate among weakly/noisily expressed
// background genes, while genes inside strong co-expression modules pick up
// spurious outside partners only rarely — which is what NoiseDeg models.
func PlantedModules(n, bgEdges int, spec ModuleSpec, seed int64) *PlantedResult {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	seen := make(map[uint64]struct{}, bgEdges) // membership only, never iterated

	addRand := func(u, v int32) {
		k := EdgeKey(u, v)
		if _, dup := seen[k]; u != v && !dup {
			seen[k] = struct{}{}
			b.AddEdge(u, v)
		}
	}

	// Modules occupy disjoint vertex sets: scattered uniformly (Window == 0)
	// or drawn from random contiguous id windows (Window ≥ 1).
	perm := rng.Perm(n)
	next := 0
	used := make([]bool, n)
	modules := make([][]int32, 0, spec.Count)
	for mi := 0; mi < spec.Count; mi++ {
		size := spec.MinSize
		if spec.MaxSize > spec.MinSize {
			size += rng.Intn(spec.MaxSize - spec.MinSize + 1)
		}
		var mod []int32
		if spec.Window >= 1 {
			mod = windowedModule(rng, used, n, size, spec.Window*size)
			if mod == nil {
				break
			}
		} else {
			if next+size > n {
				break
			}
			mod = make([]int32, size)
			for i := 0; i < size; i++ {
				mod[i] = int32(perm[next])
				next++
			}
		}
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				if rng.Float64() < spec.Density {
					addRand(mod[i], mod[j])
				}
			}
		}
		for _, v := range mod {
			used[v] = true
		}
		modules = append(modules, mod)
	}

	// Free (non-module) vertices host the background noise.
	free := make([]int32, 0, n)
	for v := 0; v < n; v++ {
		if !used[v] {
			free = append(free, int32(v))
		}
	}

	// Noisy attachments from module vertices to random background vertices.
	for _, mod := range modules {
		for _, v := range mod {
			k := 0
			for f := spec.NoiseDeg; f > 0; f -= 1 {
				if f >= 1 || rng.Float64() < f {
					k++
				}
			}
			for i := 0; i < k && len(free) > 0; i++ {
				addRand(v, free[rng.Intn(len(free))])
			}
		}
	}

	// Clumpy noise: triangles of mutually correlated noise vertices anchored
	// to the module (see ModuleSpec.NoiseClumps).
	for _, mod := range modules {
		k := 0
		for f := spec.NoiseClumps; f > 0; f -= 1 {
			if f >= 1 || rng.Float64() < f {
				k++
			}
		}
		for c := 0; c < k && len(free) >= 3 && len(mod) >= 2; c++ {
			x := free[rng.Intn(len(free))]
			y := free[rng.Intn(len(free))]
			z := free[rng.Intn(len(free))]
			if x == y || y == z || x == z {
				continue
			}
			addRand(x, y)
			addRand(y, z)
			addRand(x, z)
			// Two anchors into distinct module vertices.
			a := mod[rng.Intn(len(mod))]
			b := mod[rng.Intn(len(mod))]
			for tries := 0; b == a && tries < 8; tries++ {
				b = mod[rng.Intn(len(mod))]
			}
			addRand(x, a)
			if b != a {
				addRand(y, b)
			}
		}
	}

	// Background: sparse random edges among non-module vertices.
	target := len(seen) + bgEdges
	for len(seen) < target && len(free) >= 2 {
		addRand(free[rng.Intn(len(free))], free[rng.Intn(len(free))])
	}
	return &PlantedResult{G: b.Build(), Modules: modules}
}

// windowedModule samples `size` unused vertices from a random contiguous id
// window of the given width, retrying a bounded number of times. Returns nil
// when no window with enough free vertices is found.
func windowedModule(rng *rand.Rand, used []bool, n, size, width int) []int32 {
	if width > n {
		width = n
	}
	for attempt := 0; attempt < 50; attempt++ {
		start := 0
		if n > width {
			start = rng.Intn(n - width + 1)
		}
		var free []int32
		for v := start; v < start+width; v++ {
			if !used[v] {
				free = append(free, int32(v))
			}
		}
		if len(free) < size {
			continue
		}
		rng.Shuffle(len(free), func(i, j int) { free[i], free[j] = free[j], free[i] })
		mod := make([]int32, size)
		copy(mod, free[:size])
		return mod
	}
	return nil
}
