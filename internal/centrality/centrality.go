// Package centrality implements the node-centrality measures the paper's
// background ties to gene essentiality in biological networks (Section II:
// "high centrality nodes (degree, betweenness, closeness and their
// combinations) relate to node essentiality"): degree, closeness and
// betweenness centrality, with a parallel Brandes implementation for the
// latter, plus centrality-preservation diagnostics for evaluating filters.
package centrality

import (
	"runtime"
	"sort"
	"sync"

	"parsample/internal/graph"
)

// Degree returns the degree centrality of every vertex, normalized by n−1
// (1.0 = connected to every other vertex). For n ≤ 1 all values are 0.
func Degree(g *graph.Graph) []float64 {
	n := g.N()
	out := make([]float64, n)
	if n <= 1 {
		return out
	}
	denom := float64(n - 1)
	for v := 0; v < n; v++ {
		out[v] = float64(g.Degree(int32(v))) / denom
	}
	return out
}

// Closeness returns the harmonic closeness centrality of every vertex:
// sum over reachable u ≠ v of 1/d(v,u), normalized by n−1. Harmonic
// closeness handles disconnected networks gracefully (unreachable vertices
// contribute zero), which matters for sparse correlation networks.
func Closeness(g *graph.Graph) []float64 {
	n := g.N()
	out := make([]float64, n)
	if n <= 1 {
		return out
	}
	denom := float64(n - 1)
	off, nbr := g.CSR()
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dist := make([]int32, n)
			queue := make([]int32, 0, n)
			for v := w; v < n; v += workers {
				for i := range dist {
					dist[i] = -1
				}
				dist[v] = 0
				queue = append(queue[:0], int32(v))
				var sum float64
				for len(queue) > 0 {
					x := queue[0]
					queue = queue[1:]
					if dist[x] > 0 {
						sum += 1 / float64(dist[x])
					}
					for _, y := range nbr[off[x]:off[x+1]] {
						if dist[y] < 0 {
							dist[y] = dist[x] + 1
							queue = append(queue, y)
						}
					}
				}
				out[v] = sum / denom
			}
		}(w)
	}
	wg.Wait()
	return out
}

// Betweenness returns the (unweighted, undirected) betweenness centrality of
// every vertex via Brandes' algorithm, parallelized over source vertices.
// Scores are halved to account for undirected double counting and normalized
// by (n−1)(n−2)/2 so values lie in [0, 1].
func Betweenness(g *graph.Graph) []float64 {
	n := g.N()
	out := make([]float64, n)
	if n < 3 {
		return out
	}
	off, nbr := g.CSR()
	workers := runtime.GOMAXPROCS(0)
	partial := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bc := make([]float64, n)
			partial[w] = bc
			// Per-worker scratch.
			sigma := make([]float64, n) // shortest path counts
			dist := make([]int32, n)
			delta := make([]float64, n)
			preds := make([][]int32, n)
			stack := make([]int32, 0, n)
			queue := make([]int32, 0, n)
			for s := w; s < n; s += workers {
				if g.Degree(int32(s)) == 0 {
					continue
				}
				for i := range dist {
					dist[i] = -1
					sigma[i] = 0
					delta[i] = 0
					preds[i] = preds[i][:0]
				}
				sigma[s] = 1
				dist[s] = 0
				stack = stack[:0]
				queue = append(queue[:0], int32(s))
				for len(queue) > 0 {
					v := queue[0]
					queue = queue[1:]
					stack = append(stack, v)
					for _, u := range nbr[off[v]:off[v+1]] {
						if dist[u] < 0 {
							dist[u] = dist[v] + 1
							queue = append(queue, u)
						}
						if dist[u] == dist[v]+1 {
							sigma[u] += sigma[v]
							preds[u] = append(preds[u], v)
						}
					}
				}
				for i := len(stack) - 1; i >= 0; i-- {
					v := stack[i]
					for _, p := range preds[v] {
						delta[p] += sigma[p] / sigma[v] * (1 + delta[v])
					}
					if int(v) != s {
						bc[v] += delta[v]
					}
				}
			}
		}(w)
	}
	wg.Wait()
	norm := float64(n-1) * float64(n-2) // ×1/2 for pairs, ×2 for undirected double count cancel
	for _, bc := range partial {
		for v, x := range bc {
			out[v] += x / norm
		}
	}
	return out
}

// TopK returns the indices of the k largest scores, ties broken by vertex id.
func TopK(scores []float64, k int) []int32 {
	idx := make([]int32, len(scores))
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(i, j int) bool {
		if scores[idx[i]] != scores[idx[j]] {
			return scores[idx[i]] > scores[idx[j]]
		}
		return idx[i] < idx[j]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// TopKOverlap measures how well a filtered network preserves the top-k
// central vertices of the original: |topK(orig) ∩ topK(filtered)| / k.
// The paper's adaptive-sampling thesis is that objective-relevant structure
// (here: hub genes) should survive filtering.
func TopKOverlap(orig, filtered []float64, k int) float64 {
	if k <= 0 {
		return 0
	}
	a := TopK(orig, k)
	b := TopK(filtered, k)
	set := make(map[int32]bool, len(a))
	for _, v := range a {
		set[v] = true
	}
	hit := 0
	for _, v := range b {
		if set[v] {
			hit++
		}
	}
	return float64(hit) / float64(k)
}
