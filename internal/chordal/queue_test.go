package chordal

import (
	"fmt"
	"slices"
	"testing"

	"parsample/internal/graph"
)

// heapQueue is the indexed binary heap the bucket queue replaced, kept as
// a reference: every vertex sits in the heap exactly once and a grow is an
// increase-key sift-up.
type heapQueue struct {
	verts []int32 // heap array of vertex ids
	loc   []int32 // loc[v] = index of v in verts; -1 once popped
	size  []int32 // |B(v)|, shared with the kernel
	pos   []int32 // position of v in the processing order
}

func newHeapQueue(order, pos, size []int32) *heapQueue {
	verts := slices.Clone(order)
	loc := make([]int32, len(order))
	for i, v := range verts {
		loc[v] = int32(i)
	}
	return &heapQueue{verts: verts, loc: loc, size: size, pos: pos}
}

func (h *heapQueue) before(a, b int32) bool {
	if h.size[a] != h.size[b] {
		return h.size[a] > h.size[b]
	}
	return h.pos[a] < h.pos[b]
}

func (h *heapQueue) swap(i, j int) {
	h.verts[i], h.verts[j] = h.verts[j], h.verts[i]
	h.loc[h.verts[i]] = int32(i)
	h.loc[h.verts[j]] = int32(j)
}

func (h *heapQueue) empty() bool { return len(h.verts) == 0 }

func (h *heapQueue) pop() int32 {
	top := h.verts[0]
	h.swap(0, len(h.verts)-1)
	h.verts = h.verts[:len(h.verts)-1]
	h.loc[top] = -1
	for i, n := 0, len(h.verts); ; {
		best := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < n && h.before(h.verts[c], h.verts[best]) {
				best = c
			}
		}
		if best == i {
			return top
		}
		h.swap(i, best)
		i = best
	}
}

func (h *heapQueue) grew(v int32) {
	for i := int(h.loc[v]); i > 0 && h.before(h.verts[i], h.verts[(i-1)/2]); i = (i - 1) / 2 {
		h.swap(i, (i-1)/2)
	}
}

// heapMaximalSubgraph is the DSW kernel as it ran on the indexed heap:
// the same loop, with heapQueue selecting each commit.
func heapMaximalSubgraph(g *graph.Graph, order []int32) *Result {
	n := g.N()
	res := &Result{VisitOrder: make([]int32, 0, n)}
	if n == 0 {
		return res
	}
	bsize := make([]int32, n)
	q := newHeapQueue(order, graph.InversePerm(order), bsize)
	visited := make([]bool, n)
	b := make([][]int32, n)
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	for stamp := int32(0); !q.empty(); stamp++ {
		v := q.pop()
		visited[v] = true
		res.VisitOrder = append(res.VisitOrder, v)
		for _, w := range b[v] {
			res.Edges = append(res.Edges, graph.NormEdge(v, w))
			mark[w] = stamp
		}
		for _, x := range g.Neighbors(v) {
			if visited[x] {
				continue
			}
			ok := len(b[x]) <= len(b[v])
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
		b[v] = nil
	}
	return res
}

// The bucket queue must pop exactly the indexed heap's sequence, so the
// DSW loop keeps its visit order, commit-order edges and op counts. The
// subtest names keep their dense=false suffix so results stay comparable
// with earlier runs.
func TestBucketQueueMatchesIndexedHeap(t *testing.T) {
	planted := graph.PlantedModules(600, 900, graph.ModuleSpec{
		Count: 8, MinSize: 6, MaxSize: 14, Density: 0.85, NoiseDeg: 1,
	}, 5).G
	graphs := map[string]*graph.Graph{
		"gnm-sparse": graph.Gnm(500, 1500, 3),
		"gnm-dense":  graph.Gnm(200, 12000, 4),
		"rmat":       graph.RMAT(9, 8, 0, 0, 0, 6),
		"grid":       graph.Grid(12, 15),
		"complete":   graph.Complete(40),
		"planted":    planted,
		"empty":      graph.FromEdges(7, nil),
	}
	orders := []graph.Ordering{graph.Natural, graph.HighDegree, graph.LowDegree, graph.RCM, graph.RandomOrder}
	for name, g := range graphs {
		for _, o := range orders {
			ord := graph.Order(g, o, 2)
			t.Run(fmt.Sprintf("%s/%v/dense=false", name, o), func(t *testing.T) {
				want := heapMaximalSubgraph(g, ord)
				got := MaximalSubgraph(g, ord)
				if !slices.Equal(got.VisitOrder, want.VisitOrder) {
					t.Fatal("visit order differs from the indexed heap's")
				}
				if !slices.Equal(got.Edges, want.Edges) {
					t.Fatal("commit-order edges differ from the indexed heap's")
				}
				if got.Ops != want.Ops {
					t.Fatalf("ops = %d, indexed heap %d", got.Ops, want.Ops)
				}
			})
		}
	}
}

// The bucket queue alone, against a brute-force scan for the
// (size desc, pos asc) minimum under random grow sequences.
func TestBucketQueuePopsPriorityOrder(t *testing.T) {
	const n = 64
	order := graph.Order(graph.Gnm(n, 0, 1), graph.RandomOrder, 9)
	pos := graph.InversePerm(order)
	size := make([]int32, n)
	q := newBucketQueue(order, pos, size)
	popped := make([]bool, n)
	rng := uint64(7)
	for step := 0; !q.empty(); step++ {
		for k := 0; k < 3; k++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			if v := int32(rng >> 58); !popped[v] {
				size[v]++
				q.grew(v)
			}
		}
		want := int32(-1)
		for v := int32(0); v < n; v++ {
			if !popped[v] && (want < 0 || size[v] > size[want] || size[v] == size[want] && pos[v] < pos[want]) {
				want = v
			}
		}
		if got := q.pop(); got != want {
			t.Fatalf("step %d: popped %d, want %d", step, got, want)
		}
		popped[want] = true
	}
}
