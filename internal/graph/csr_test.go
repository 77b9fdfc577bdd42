package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// ---------------------------------------------------------------- CSR core

func TestCSRLayout(t *testing.T) {
	g := Gnm(60, 140, 3)
	off, nbr := g.CSR()
	if len(off) != g.N()+1 || off[0] != 0 || int(off[g.N()]) != len(nbr) {
		t.Fatalf("offsets malformed: len=%d first=%d last=%d arena=%d",
			len(off), off[0], off[g.N()], len(nbr))
	}
	if len(nbr) != 2*g.M() {
		t.Fatalf("arena holds %d entries, want 2M=%d", len(nbr), 2*g.M())
	}
	for v := int32(0); int(v) < g.N(); v++ {
		row := nbr[off[v]:off[v+1]]
		if len(row) != g.Degree(v) {
			t.Fatalf("row %d length %d != degree %d", v, len(row), g.Degree(v))
		}
		for i := 1; i < len(row); i++ {
			if row[i-1] >= row[i] {
				t.Fatalf("row %d not strictly sorted: %v", v, row)
			}
		}
	}
}

func TestCSREmptyAndSingleVertex(t *testing.T) {
	for _, n := range []int{0, 1} {
		g := NewBuilder(n).Build()
		if g.N() != n || g.M() != 0 {
			t.Fatalf("n=%d: got n=%d m=%d", n, g.N(), g.M())
		}
		off, nbr := g.CSR()
		if len(off) != n+1 || len(nbr) != 0 {
			t.Fatalf("n=%d: off len %d, arena len %d", n, len(off), len(nbr))
		}
		if es := g.Edges(); len(es) != 0 {
			t.Fatalf("n=%d: unexpected edges %v", n, es)
		}
	}
	// Zero value behaves like the empty graph.
	var zero Graph
	if zero.N() != 0 || zero.M() != 0 {
		t.Fatal("zero-value graph not empty")
	}
}

func TestHasEdgeFastMatchesHasEdge(t *testing.T) {
	g := RMAT(8, 6, 0, 0, 0, 7)
	n := int32(g.N())
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			if u == v {
				continue
			}
			if g.HasEdge(u, v) != g.HasEdgeFast(u, v) {
				t.Fatalf("HasEdge and HasEdgeFast disagree on (%d,%d)", u, v)
			}
		}
	}
	// And again with dense rows built.
	if !g.EnsureDense() {
		t.Fatal("EnsureDense refused a small graph")
	}
	for u := int32(0); u < n; u++ {
		for v := int32(0); v < n; v++ {
			if u != v && g.HasEdge(u, v) != g.HasEdgeFast(u, v) {
				t.Fatalf("dense HasEdgeFast disagrees on (%d,%d)", u, v)
			}
		}
	}
}

func TestEnsureDenseRows(t *testing.T) {
	g := Gnm(100, 250, 5)
	if g.Row(0) != nil {
		t.Fatal("dense rows present before EnsureDense")
	}
	if !g.EnsureDense() {
		t.Fatal("EnsureDense refused")
	}
	for v := int32(0); int(v) < g.N(); v++ {
		row := g.Row(v)
		if row.Count() != g.Degree(v) {
			t.Fatalf("row %d popcount %d != degree %d", v, row.Count(), g.Degree(v))
		}
		for _, w := range g.Neighbors(v) {
			if !row.Has(w) {
				t.Fatalf("row %d missing neighbor %d", v, w)
			}
		}
	}
}

func TestLocalizerReuse(t *testing.T) {
	g := Gnm(80, 200, 9)
	loc := g.NewLocalizer()
	for trial := 0; trial < 5; trial++ {
		keep := []int32{int32(trial), int32(trial + 10), int32(trial + 20), int32(trial + 30)}
		sub, toGlobal := loc.Compact(keep)
		want, wantMap := g.CompactSubgraph(keep)
		if sub.N() != want.N() || sub.M() != want.M() {
			t.Fatalf("trial %d: localizer n=%d m=%d, one-shot n=%d m=%d",
				trial, sub.N(), sub.M(), want.N(), want.M())
		}
		for i := range toGlobal {
			if toGlobal[i] != wantMap[i] {
				t.Fatalf("trial %d: toGlobal mismatch", trial)
			}
		}
	}
}

// --------------------------------------------- orderings on the CSR graph

// Every ordering must produce a permutation on CSR graphs across the edge
// cases: empty, single-vertex, disconnected, and generator graphs.
func TestOrderingsCSRRoundtrip(t *testing.T) {
	graphs := map[string]*Graph{
		"empty":        NewBuilder(0).Build(),
		"single":       NewBuilder(1).Build(),
		"isolated":     NewBuilder(5).Build(),
		"path":         Path(17),
		"disconnected": FromEdges(9, []Edge{{0, 1}, {1, 2}, {4, 5}}),
		"rmat":         RMAT(7, 4, 0, 0, 0, 3),
	}
	for name, g := range graphs {
		for _, o := range append(AllOrderings, RandomOrder) {
			ord := Order(g, o, 5)
			if !IsPermutation(ord, g.N()) {
				t.Fatalf("%s/%v: not a permutation of %d", name, o, g.N())
			}
			// InversePerm must invert it.
			pos := InversePerm(ord)
			for i, v := range ord {
				if pos[v] != int32(i) {
					t.Fatalf("%s/%v: InversePerm broken at %d", name, o, i)
				}
			}
		}
	}
}

// ------------------------------------------- partitions on the CSR graph

// BlockPartition must roundtrip: parts cover every vertex exactly once,
// Part[] agrees with Parts[], and internal+border edge counts add up to M —
// across empty, single-vertex and generator CSR graphs at several P.
func TestBlockPartitionCSRRoundtrip(t *testing.T) {
	graphs := map[string]*Graph{
		"empty":  NewBuilder(0).Build(),
		"single": NewBuilder(1).Build(),
		"rmat":   RMAT(7, 4, 0, 0, 0, 11),
		"gnm":    Gnm(50, 120, 13),
	}
	for name, g := range graphs {
		for _, p := range []int{1, 2, 3, 7, 64} {
			ord := Order(g, Natural, 0)
			pt := BlockPartition(ord, p)
			seen := make([]int, g.N())
			for pid, part := range pt.Parts {
				for i, v := range part {
					seen[v]++
					if pt.Part[v] != int32(pid) {
						t.Fatalf("%s P=%d: Part[%d]=%d but listed in part %d",
							name, p, v, pt.Part[v], pid)
					}
					if pt.Index[v] != int32(i) {
						t.Fatalf("%s P=%d: Index[%d]=%d but listed at %d", name, p, v, pt.Index[v], i)
					}
				}
			}
			for v, c := range seen {
				if c != 1 {
					t.Fatalf("%s P=%d: vertex %d covered %d times", name, p, v, c)
				}
			}
			internal, border := pt.InternalEdgeCount(g)
			sum := border
			for _, c := range internal {
				sum += c
			}
			if sum != g.M() {
				t.Fatalf("%s P=%d: internal+border=%d != M=%d", name, p, sum, g.M())
			}
			if len(pt.BorderEdges(g)) != border {
				t.Fatalf("%s P=%d: BorderEdges len disagrees with count", name, p)
			}
		}
	}
}

// Induced must build CompactSubgraph's graph for every block, rows
// ascending, from the partition's Part and Index alone.
func TestPartitionInducedMatchesCompactSubgraph(t *testing.T) {
	for name, g := range map[string]*Graph{
		"empty": NewBuilder(0).Build(),
		"rmat":  RMAT(8, 8, 0, 0, 0, 5),
		"grid":  Grid(9, 7),
	} {
		for _, o := range []Ordering{Natural, HighDegree, RandomOrder} {
			for _, p := range []int{1, 3, 16} {
				pt := BlockPartition(Order(g, o, 2), p)
				for rank, block := range pt.Parts {
					got := pt.Induced(g, rank)
					want, _ := g.CompactSubgraph(block)
					gotOff, gotNbr := got.CSR()
					wantOff, wantNbr := want.CSR()
					if got.M() != want.M() || !slices.Equal(gotOff, wantOff) || !slices.Equal(gotNbr, wantNbr) {
						t.Fatalf("%s/%v P=%d block %d: Induced differs from CompactSubgraph", name, o, p, rank)
					}
				}
			}
		}
	}
}

// Partition blocks must be contiguous slices of the processing order — the
// property the CSR arena relies on for rank-local iteration.
func TestBlockPartitionPreservesOrder(t *testing.T) {
	g := Gnm(40, 80, 1)
	ord := Order(g, HighDegree, 0)
	pt := BlockPartition(ord, 4)
	i := 0
	for _, part := range pt.Parts {
		for _, v := range part {
			if v != ord[i] {
				t.Fatalf("partition reordered: pos %d got %d want %d", i, v, ord[i])
			}
			i++
		}
	}
}

// FromSortedEdges must build exactly the graph FromEdges builds from the
// same strictly ascending normalized list.
func TestFromSortedEdgesMatchesFromEdges(t *testing.T) {
	graphs := map[string]*Graph{
		"empty":    NewBuilder(0).Build(),
		"isolated": NewBuilder(5).Build(),
		"path":     Path(9),
		"complete": Complete(12),
		"rmat":     RMAT(8, 6, 0, 0, 0, 3),
		"gnm":      Gnm(300, 900, 4),
	}
	for name, g := range graphs {
		edges := g.Edges()
		got, want := FromSortedEdges(g.N(), edges), FromEdges(g.N(), edges)
		gotOff, gotNbr := got.CSR()
		wantOff, wantNbr := want.CSR()
		if got.N() != want.N() || got.M() != want.M() || !slices.Equal(gotOff, wantOff) || !slices.Equal(gotNbr, wantNbr) {
			t.Errorf("%s: FromSortedEdges CSR differs from FromEdges", name)
		}
	}
}

// An input that breaks FromSortedEdges' contract is a caller bug and
// panics instead of building a graph with unsorted or duplicate rows.
func TestFromSortedEdgesPanicsOnContractBreach(t *testing.T) {
	for name, edges := range map[string][]Edge{
		"duplicate":    {{0, 1}, {0, 1}},
		"descending":   {{1, 2}, {0, 3}},
		"unnormalized": {{2, 1}},
		"self loop":    {{1, 1}},
		"out of range": {{0, 4}},
		"negative":     {{-1, 2}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: FromSortedEdges accepted %v", name, edges)
				}
			}()
			FromSortedEdges(4, edges)
		}()
	}
}

// FromCSRArenas must reject every structurally invalid arena pair with an
// error, never a panic: its input comes from snapshot blobs on disk.
func TestFromCSRArenasRejects(t *testing.T) {
	for _, tc := range []struct {
		name     string
		off, nbr []int32
	}{
		{"neighbors without offsets", nil, []int32{1}},
		{"offsets start above 0", []int32{1, 2}, []int32{0, 0}},
		{"offsets end short of arena", []int32{0, 1, 1}, []int32{1, 0}},
		{"odd arena", []int32{0, 1, 1, 1}, []int32{1}},
		{"offset beyond arena before a decrease", []int32{0, 5, 2}, []int32{1, 0}},
		{"negative offset", []int32{0, -2, 2}, []int32{1, 0}},
		{"offsets decrease", []int32{0, 2, 1, 2}, []int32{1, 2}},
		{"unsorted row", []int32{0, 2, 3, 4}, []int32{2, 1, 0, 0}},
		{"duplicate neighbor", []int32{0, 2, 4}, []int32{1, 1, 0, 0}},
		{"self loop", []int32{0, 1, 2}, []int32{0, 1}},
		{"neighbor out of range", []int32{0, 1, 2}, []int32{2, 0}},
		{"negative neighbor", []int32{0, 1, 2}, []int32{-1, 0}},
	} {
		if g, err := FromCSRArenas(tc.off, tc.nbr); err == nil {
			t.Errorf("%s: accepted as %v", tc.name, g)
		}
	}
	if g, err := FromCSRArenas([]int32{0, 1, 2}, []int32{1, 0}); err != nil || g.M() != 1 {
		t.Fatalf("valid single-edge arenas: %v, %v", g, err)
	}
}

// ----------------------------------------------------------------- bitset

func TestBitsetOps(t *testing.T) {
	b := NewBitset(130)
	for _, i := range []int32{0, 63, 64, 127, 129} {
		b.Set(i)
	}
	if b.Count() != 5 || !b.Has(64) || b.Has(1) {
		t.Fatalf("count=%d", b.Count())
	}
	b.Clear(64)
	if b.Has(64) || b.Count() != 4 {
		t.Fatal("clear failed")
	}
	var got []int32
	b.ForEach(func(i int32) { got = append(got, i) })
	want := []int32{0, 63, 127, 129}
	if len(got) != len(want) {
		t.Fatalf("ForEach gave %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("ForEach order %v, want %v", got, want)
		}
	}
}

func TestBitsetSubsetAndCount(t *testing.T) {
	a := NewBitset(200)
	b := NewBitset(200)
	for i := int32(0); i < 200; i += 3 {
		a.Set(i)
		b.Set(i)
	}
	b.Set(100)
	if got := a.AndCount(b); got != a.Count() {
		t.Fatalf("AndCount=%d want %d", got, a.Count())
	}
}

// ------------------------------------------------------------ edge order

// CompareEdges is the one (U, V) order: sorting a shuffled edge list with
// it reproduces the CSR's own edge order.
func TestCompareEdges(t *testing.T) {
	g := Gnm(60, 200, 3)
	want := g.Edges()
	got := slices.Clone(want)
	rand.New(rand.NewSource(1)).Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
	slices.SortFunc(got, CompareEdges)
	if !slices.Equal(got, want) {
		t.Fatal("CompareEdges order differs from Graph.Edges")
	}
	if CompareEdges(Edge{1, 5}, Edge{2, 0}) >= 0 || CompareEdges(Edge{1, 5}, Edge{1, 4}) <= 0 ||
		CompareEdges(Edge{3, 4}, Edge{3, 4}) != 0 {
		t.Fatal("CompareEdges is not the lexicographic (U, V) order")
	}
}

// ------------------------------------------------------------------ RMAT

func TestRMATProperties(t *testing.T) {
	g := RMAT(9, 8, 0, 0, 0, 4)
	if g.N() != 512 {
		t.Fatalf("n=%d want 512", g.N())
	}
	if g.M() == 0 || g.M() > 8*512 {
		t.Fatalf("m=%d out of range", g.M())
	}
	// Deterministic per seed.
	h := RMAT(9, 8, 0, 0, 0, 4)
	if h.M() != g.M() {
		t.Fatal("RMAT not deterministic")
	}
	// Skewed quadrants produce hubs: max degree far above the mean.
	if g.MaxDegree() < 4*(2*g.M()/g.N()) {
		t.Fatalf("no hubs: max degree %d, mean %d", g.MaxDegree(), 2*g.M()/g.N())
	}
}
