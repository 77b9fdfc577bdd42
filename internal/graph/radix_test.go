package graph

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// refDegreeOrder is the comparator sort DegreeOrder replaced.
func refDegreeOrder(g *Graph, asc bool) []int32 {
	ord := NaturalOrder(g.N())
	sort.SliceStable(ord, func(i, j int) bool {
		di, dj := g.Degree(ord[i]), g.Degree(ord[j])
		if di != dj {
			if asc {
				return di < dj
			}
			return di > dj
		}
		return ord[i] < ord[j]
	})
	return ord
}

// refRCM is the comparator-sorted BFS ReverseCuthillMcKee replaced.
func refRCM(g *Graph) []int32 {
	n := g.N()
	visited := make([]bool, n)
	order := make([]int32, 0, n)
	queue := make([]int32, 0, n)
	var scratch []int32
	for _, s := range refDegreeOrder(g, true) {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			scratch = scratch[:0]
			for _, w := range g.Neighbors(v) {
				if !visited[w] {
					visited[w] = true
					scratch = append(scratch, w)
				}
			}
			sort.Slice(scratch, func(i, j int) bool {
				di, dj := g.Degree(scratch[i]), g.Degree(scratch[j])
				if di != dj {
					return di < dj
				}
				return scratch[i] < scratch[j]
			})
			queue = append(queue, scratch...)
		}
	}
	slices.Reverse(order)
	return order
}

// orderingGraphs covers random, skewed and tie-heavy degree sequences plus
// the degenerate sizes.
func orderingGraphs() map[string]*Graph {
	planted := PlantedModules(2000, 3000, ModuleSpec{Count: 20, MinSize: 8, MaxSize: 16, Density: 0.9, NoiseDeg: 1}, 4)
	return map[string]*Graph{
		"empty":    NewBuilder(0).Build(),
		"single":   NewBuilder(1).Build(),
		"isolated": NewBuilder(50).Build(),
		"gnm":      Gnm(3000, 9000, 1),
		"rmat":     RMAT(11, 8, 0, 0, 0, 2),
		"planted":  planted.G,
		"grid":     Grid(30, 40),
		"cycle":    Cycle(101),
	}
}

func TestDegreeOrderMatchesComparatorSort(t *testing.T) {
	for name, g := range orderingGraphs() {
		for _, asc := range []bool{true, false} {
			if got, want := DegreeOrder(g, asc), refDegreeOrder(g, asc); !slices.Equal(got, want) {
				t.Errorf("%s asc=%v: DegreeOrder differs from the comparator sort", name, asc)
			}
		}
	}
}

func TestRCMMatchesComparatorSort(t *testing.T) {
	for name, g := range orderingGraphs() {
		if got, want := ReverseCuthillMcKee(g), refRCM(g); !slices.Equal(got, want) {
			t.Errorf("%s: ReverseCuthillMcKee differs from the comparator BFS", name)
		}
	}
}

func TestSortEdgesMatchesCompareEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const top = 1<<31 - 1
	for _, n := range []int{0, 1, 2, 7, 300, 5000} {
		edges := make([]Edge, n)
		for i := range edges {
			switch rng.Intn(3) {
			case 0: // endpoints near 2³¹−1
				edges[i] = Edge{U: top - rng.Int31n(4), V: top - rng.Int31n(4)}
			case 1: // duplicates of an earlier edge
				if i > 0 {
					edges[i] = edges[rng.Intn(i)]
					continue
				}
				fallthrough
			default:
				edges[i] = Edge{U: rng.Int31n(64), V: rng.Int31()}
			}
		}
		got, want := slices.Clone(edges), slices.Clone(edges)
		SortEdges(got)
		slices.SortFunc(want, CompareEdges)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d: SortEdges differs from slices.SortFunc(CompareEdges)", n)
		}
	}
}

func TestRadixSortStable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{0, 1, 2, 100, 4000} {
		for _, span := range []uint64{1, 3, 1 << 20, 1<<63 + 1} {
			keys := make([]uint64, n)
			vals := make([]int32, n)
			for i := range keys {
				keys[i] = rng.Uint64() % span * (1<<40 + 1)
				vals[i] = int32(i)
			}
			type kv struct {
				k uint64
				v int32
			}
			want := make([]kv, n)
			for i := range want {
				want[i] = kv{keys[i], vals[i]}
			}
			sort.SliceStable(want, func(i, j int) bool { return want[i].k < want[j].k })
			RadixSort(keys, vals)
			for i := range want {
				if keys[i] != want[i].k || vals[i] != want[i].v {
					t.Fatalf("n=%d span=%d: position %d = (%d, %d), want (%d, %d)",
						n, span, i, keys[i], vals[i], want[i].k, want[i].v)
				}
			}
		}
	}
	// Keys without vals.
	keys := []uint64{5, 1 << 60, 3, 5, 0}
	RadixSort(keys, nil)
	if !slices.Equal(keys, []uint64{0, 3, 5, 5, 1 << 60}) {
		t.Fatalf("keys-only sort = %v", keys)
	}
}
