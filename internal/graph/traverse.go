package graph

// BFS visits all vertices reachable from src in breadth-first order and
// returns them in visit order.
func BFS(g *Graph, src int32) []int32 {
	visited := make([]bool, g.N())
	visited[src] = true
	queue := []int32{src}
	order := make([]int32, 0, g.N())
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		order = append(order, v)
		for _, w := range g.Neighbors(v) {
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return order
}

// ConnectedComponents returns the vertex sets of the connected components of
// g, largest first.
func ConnectedComponents(g *Graph) [][]int32 {
	n := g.N()
	comp := make([]int32, n)
	for i := range comp {
		comp[i] = -1
	}
	var comps [][]int32
	queue := make([]int32, 0, 64)
	for s := int32(0); int(s) < n; s++ {
		if comp[s] >= 0 {
			continue
		}
		id := int32(len(comps))
		comp[s] = id
		queue = append(queue[:0], s)
		var members []int32
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			members = append(members, v)
			for _, w := range g.Neighbors(v) {
				if comp[w] < 0 {
					comp[w] = id
					queue = append(queue, w)
				}
			}
		}
		comps = append(comps, members)
	}
	// Largest first (stable for determinism).
	for i := 1; i < len(comps); i++ {
		for j := i; j > 0 && len(comps[j]) > len(comps[j-1]); j-- {
			comps[j], comps[j-1] = comps[j-1], comps[j]
		}
	}
	return comps
}

// IsConnected reports whether g is connected (the empty graph is connected).
func IsConnected(g *Graph) bool {
	if g.N() == 0 {
		return true
	}
	return len(BFS(g, 0)) == g.N()
}

// CountTriangles returns the number of triangles in g.
func CountTriangles(g *Graph) int {
	n := 0
	g.ForEachEdge(func(u, v int32) {
		// Intersect sorted neighbor lists, counting only w > v to count each
		// triangle once.
		a, b := g.Neighbors(u), g.Neighbors(v)
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			switch {
			case a[i] < b[j]:
				i++
			case a[i] > b[j]:
				j++
			default:
				if a[i] > v {
					n++
				}
				i++
				j++
			}
		}
	})
	return n
}

// Density returns 2m / (n(n-1)), the fraction of possible edges present.
func Density(g *Graph) float64 {
	n := g.N()
	if n < 2 {
		return 0
	}
	return 2 * float64(g.M()) / (float64(n) * float64(n-1))
}
