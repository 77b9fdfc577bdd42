// Package chordal implements maximal chordal subgraph extraction
// (Dearing, Shier & Warner, Discrete Applied Mathematics 1988) and
// chordality testing (maximum cardinality search + perfect elimination
// ordering verification). These are the combinatorial kernels behind the
// paper's adaptive sampling filter.
package chordal

import (
	"context"

	"parsample/internal/graph"
)

// Result is the output of a maximal chordal subgraph extraction.
type Result struct {
	// Edges of the chordal subgraph, normalized (U < V), in commit order.
	// DSW commits every edge exactly once (v—w is emitted when v is visited
	// with w ∈ B(v)), so the list is duplicate free by construction.
	Edges []graph.Edge
	// VisitOrder is the order in which the algorithm committed vertices; its
	// reverse is a perfect elimination ordering of the subgraph.
	VisitOrder []int32
	// Ops counts elementary candidate-set operations performed; used by the
	// scalability cost model (internal/mpisim).
	Ops int64
}

// bucketQueue selects the next vertex to commit: largest candidate set
// first, ties broken by position in the requested processing order. It is
// a bucket queue over candidate-set size:
//
//   - Bucket 0 is a cursor over order. Sizes only grow, so a vertex only
//     ever leaves this bucket and the cursor never moves back.
//   - Each bucket s ≥ 1 is a small min-heap of order positions with lazy
//     deletion. A grow pushes the vertex into its new bucket and leaves
//     the old entry behind; an entry is live while its vertex still has
//     size s. A popped vertex leaves no live entry: the entry it was
//     popped through is gone, and every other one sits in a lower bucket.
//
// (size desc, pos asc) is a strict total order, so the pop sequence is the
// one any correct priority queue yields. A pop costs O(log k) in the size
// of its bucket plus the stale entries it skips, at most one per grow.
type bucketQueue struct {
	order  []int32
	pos    []int32   // position of v in order
	size   []int32   // |B(v)|, shared with the kernel
	heaps  [][]int32 // heaps[s], s ≥ 1: min-heap of positions
	cursor int       // bucket 0: no live vertex before order[cursor]
	top    int       // no live entry above bucket top
	left   int       // vertices not yet popped
}

func newBucketQueue(order, pos, size []int32) *bucketQueue {
	return &bucketQueue{order: order, pos: pos, size: size, left: len(order)}
}

func (q *bucketQueue) empty() bool { return q.left == 0 }

// pop removes and returns the top-priority vertex.
func (q *bucketQueue) pop() int32 {
	q.left--
	for ; q.top > 0; q.top-- {
		h := q.heaps[q.top]
		for len(h) > 0 {
			v := q.order[h[0]]
			h = heapPop(h)
			if q.size[v] == int32(q.top) {
				q.heaps[q.top] = h
				return v
			}
		}
		q.heaps[q.top] = h
	}
	for q.size[q.order[q.cursor]] != 0 {
		q.cursor++
	}
	q.cursor++
	return q.order[q.cursor-1]
}

// grew moves v to the bucket of its new, one larger candidate-set size.
func (q *bucketQueue) grew(v int32) {
	s := int(q.size[v])
	for len(q.heaps) <= s {
		q.heaps = append(q.heaps, nil)
	}
	q.heaps[s] = heapPush(q.heaps[s], q.pos[v])
	if s > q.top {
		q.top = s
	}
}

// heapPush adds x to the min-heap h.
func heapPush(h []int32, x int32) []int32 {
	h = append(h, x)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= x {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = x
	return h
}

// heapPop removes the minimum of the non-empty min-heap h.
func heapPop(h []int32) []int32 {
	last := len(h) - 1
	x := h[last]
	h = h[:last]
	if last == 0 {
		return h
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && h[c+1] < h[c] {
			c++
		}
		if x <= h[c] {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
	return h
}

// MaximalSubgraph extracts a maximal chordal subgraph of g using the
// Dearing–Shier–Warner traversal, O(E·d) for maximum degree d.
//
// Each unvisited vertex u carries a candidate set B(u): visited neighbors w
// such that adding all edges {u,w} keeps the subgraph chordal (B(u) induces a
// clique in the current subgraph). At every step the vertex with the largest
// candidate set is committed (ties broken by the supplied processing order),
// its candidate edges are added, and for every unvisited neighbor x of the
// committed vertex v, B(x) grows by v whenever B(x) ⊆ B(v) — which preserves
// the clique invariant since B(v) ∪ {v} is a clique.
//
// Candidate sets are member slices in commit order. The subset test marks
// B(v) in a stamped array and probes each member of B(x), so it costs
// O(|B(x)|) and touches no hash map; Result.Ops counts one op per probe
// plus one per unvisited neighbor examined.
//
// order must be a permutation of 0..g.N()-1; it supplies both the starting
// bias and tie-breaking, which is how the paper's Natural / HighDegree /
// LowDegree / RCM perturbations enter the algorithm.
func MaximalSubgraph(g *graph.Graph, order []int32) *Result {
	res, _ := MaximalSubgraphContext(context.Background(), g, order)
	return res
}

// cancelStride is how many vertex commits pass between context polls in the
// DSW loop. A commit processes one vertex's whole neighborhood, so 256
// commits bound the poll interval to a few hundred microseconds of work
// while keeping the check off the per-edge path.
const cancelStride = 256

// MaximalSubgraphContext is MaximalSubgraph with cooperative cancellation:
// the traversal polls ctx every cancelStride committed vertices and returns
// (nil, ctx.Err()) once it observes cancellation. A nil error means the
// extraction ran to completion.
func MaximalSubgraphContext(ctx context.Context, g *graph.Graph, order []int32) (*Result, error) {
	n := g.N()
	res := &Result{VisitOrder: make([]int32, 0, n)}
	if n == 0 {
		return res, nil
	}
	res.Edges = make([]graph.Edge, 0, g.M()/2)
	pos := graph.InversePerm(order)
	bsize := make([]int32, n) // |B(v)|, shared with the queue
	q := newBucketQueue(order, pos, bsize)
	visited := make([]bool, n)
	b := make([][]int32, n) // candidate sets
	// Timestamped membership marks for O(|B(u)|) subset tests.
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}

	stamp := int32(0)
	for !q.empty() {
		if stamp%cancelStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		v := q.pop()
		visited[v] = true
		res.VisitOrder = append(res.VisitOrder, v)

		// Commit edges v—w for all w ∈ B(v), marking B(v) for subset tests.
		for _, w := range b[v] {
			res.Edges = append(res.Edges, graph.NormEdge(v, w))
			mark[w] = stamp
		}
		bvLen := len(b[v])

		for _, x := range g.Neighbors(v) {
			if visited[x] {
				continue
			}
			// B(x) ⊆ B(v)?
			ok := len(b[x]) <= bvLen
			if ok {
				for _, w := range b[x] {
					res.Ops++
					if mark[w] != stamp {
						ok = false
						break
					}
				}
			}
			res.Ops++
			if ok {
				b[x] = append(b[x], v)
				bsize[x]++
				q.grew(x)
			}
		}
		stamp++
		b[v] = nil
	}
	return res, nil
}
