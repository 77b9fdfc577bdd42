package snapshot

import (
	"bytes"
	"errors"
	"math"
	"os"
	"testing"

	"parsample/internal/analysis"
	"parsample/internal/comm"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/sampling"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	for _, e := range [][2]int32{{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {2, 5}} {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

func graphsEqual(a, b *graph.Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	ao, an := a.CSR()
	bo, bn := b.CSR()
	if len(ao) != len(bo) || len(an) != len(bn) {
		return false
	}
	for i := range ao {
		if ao[i] != bo[i] {
			return false
		}
	}
	for i := range an {
		if an[i] != bn[i] {
			return false
		}
	}
	return true
}

func TestGraphRoundTrip(t *testing.T) {
	for _, g := range []*graph.Graph{testGraph(t), graph.NewBuilder(4).Build(), &graph.Graph{}} {
		data := EncodeGraph(g)
		got, err := DecodeGraph(data)
		if err != nil {
			t.Fatalf("decode %v: %v", g, err)
		}
		if !graphsEqual(g, got) {
			t.Fatalf("round trip mismatch: %v -> %v", g, got)
		}
	}
}

func TestOrderRoundTrip(t *testing.T) {
	for _, ord := range [][]int32{nil, {}, {3, 1, 4, 1, 5, 9, 2, 6}} {
		data := EncodeOrder(ord)
		got, err := DecodeOrder(data)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ord) {
			t.Fatalf("len = %d, want %d", len(got), len(ord))
		}
		for i := range ord {
			if got[i] != ord[i] {
				t.Fatalf("ord[%d] = %d, want %d", i, got[i], ord[i])
			}
		}
	}
}

func TestClustersRoundTrip(t *testing.T) {
	cs := []mcode.Cluster{
		{ID: 1, Vertices: []int32{0, 1, 2}, Edges: 3, Density: 1, Score: 3, Seed: 2},
		{ID: 2, Vertices: []int32{3, 4, 5, 6}, Edges: 5, Density: 5.0 / 6, Score: 10.0 / 3, Seed: 5},
		{ID: 3, Vertices: nil, Edges: 0, Density: math.Pi, Score: -0.0, Seed: -1},
	}
	got, err := DecodeClusters(EncodeClusters(cs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cs) {
		t.Fatalf("len = %d, want %d", len(got), len(cs))
	}
	for i := range cs {
		a, b := cs[i], got[i]
		if a.ID != b.ID || a.Edges != b.Edges || a.Seed != b.Seed ||
			math.Float64bits(a.Density) != math.Float64bits(b.Density) ||
			math.Float64bits(a.Score) != math.Float64bits(b.Score) ||
			len(a.Vertices) != len(b.Vertices) {
			t.Fatalf("cluster %d mismatch: %+v vs %+v", i, a, b)
		}
		for j := range a.Vertices {
			if a.Vertices[j] != b.Vertices[j] {
				t.Fatalf("cluster %d vertex %d mismatch", i, j)
			}
		}
	}
	if got, err := DecodeClusters(EncodeClusters(nil)); err != nil || len(got) != 0 {
		t.Fatalf("empty round trip = (%v, %v)", got, err)
	}
}

func TestScoredAndMatchesRoundTrip(t *testing.T) {
	sc := []analysis.ScoredCluster{{
		Cluster: mcode.Cluster{ID: 7, Vertices: []int32{1, 2, 9}, Edges: 3, Density: 1, Score: 3, Seed: 9},
	}}
	sc[0].Score.AEES = 2.5
	sc[0].Score.MaxEdgeScore = 6
	sc[0].Score.DominantTerm = 42
	sc[0].Score.DominantCount = 3
	sc[0].Score.Edges = 3
	gotSc, err := DecodeScored(EncodeScored(sc))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotSc) != 1 || gotSc[0].Score != sc[0].Score || gotSc[0].Cluster.ID != 7 {
		t.Fatalf("scored round trip mismatch: %+v", gotSc)
	}

	ms := []analysis.Match{
		{FilteredID: 1, OriginalID: 2, Overlap: analysis.Overlap{NodeFrac: 0.75, EdgeFrac: 0.5}},
		{FilteredID: 2, OriginalID: -1},
	}
	gotMs, err := DecodeMatches(EncodeMatches(ms))
	if err != nil {
		t.Fatal(err)
	}
	if len(gotMs) != 2 || gotMs[0] != ms[0] || gotMs[1] != ms[1] {
		t.Fatalf("matches round trip mismatch: %+v", gotMs)
	}
}

func TestFilteredRoundTrip(t *testing.T) {
	r := &sampling.Result{
		Algorithm:            sampling.ChordalNoComm,
		BorderEdges:          5,
		DuplicateBorderEdges: 1,
		Stats: comm.RunStats{
			P:           4,
			RankOps:     []int64{10, 20, 30, 40},
			RankSeconds: []float64{0.1, 0.2, 0.3, 0.4},
			Messages:    7, Bytes: 512, CollMessages: 3, CollBytes: 64,
			SerialOps: 11, Restarts: 2,
		},
		Subgraph: testGraph(t),
	}
	got, err := DecodeFiltered(EncodeFiltered(r))
	if err != nil {
		t.Fatal(err)
	}
	if got.Algorithm != r.Algorithm || got.BorderEdges != r.BorderEdges ||
		got.DuplicateBorderEdges != r.DuplicateBorderEdges ||
		got.Stats.P != r.Stats.P || got.Stats.Messages != r.Stats.Messages ||
		got.Stats.SerialOps != r.Stats.SerialOps || got.Stats.Restarts != r.Stats.Restarts {
		t.Fatalf("filtered round trip mismatch: %+v vs %+v", got, r)
	}
	for i := range r.Stats.RankOps {
		if got.Stats.RankOps[i] != r.Stats.RankOps[i] ||
			got.Stats.RankSeconds[i] != r.Stats.RankSeconds[i] {
			t.Fatalf("rank telemetry mismatch at %d", i)
		}
	}
	if !graphsEqual(r.Subgraph, got.Subgraph) {
		t.Fatal("subgraph mismatch")
	}
}

// testdata/filtered_chordal_comm.snap was written by the encoder that
// persisted the subgraph next to a separate edge container: chordal-comm,
// P=4, seed 1, natural order, on Gnm(80, 240, 5). A disk tier filled
// before results carried their subgraph directly must still decode to what
// a fresh run computes, and both must encode to exactly those bytes.
func TestFilteredGoldenBlob(t *testing.T) {
	blob, err := os.ReadFile("testdata/filtered_chordal_comm.snap")
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFiltered(blob)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.Gnm(80, 240, 5)
	want, err := sampling.Run(sampling.ChordalComm, g, sampling.Options{P: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !graphsEqual(got.Subgraph, want.Subgraph) {
		t.Fatal("decoded subgraph differs from a fresh run")
	}
	if !bytes.Equal(EncodeFiltered(got), blob) {
		t.Fatal("decoded blob re-encodes to different bytes")
	}
	if !bytes.Equal(EncodeFiltered(want), blob) {
		t.Fatal("a fresh run encodes to different bytes than the golden blob")
	}
}

// Corruption discipline: every single-byte flip and every truncation of a
// valid snapshot must yield an error wrapping ErrCorrupt — never a panic,
// never a silently wrong artifact.
func TestDecodeRejectsCorruption(t *testing.T) {
	data := EncodeGraph(testGraph(t))
	if _, err := DecodeGraph(data); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		bad := bytes.Clone(data)
		bad[i] ^= 0x40
		if _, err := DecodeGraph(bad); err == nil {
			t.Fatalf("byte flip at %d decoded successfully", i)
		} else if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("byte flip at %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	for n := 0; n < len(data); n++ {
		if _, err := DecodeGraph(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

// Type confusion across artifact kinds is rejected by the header.
func TestDecodeRejectsWrongType(t *testing.T) {
	data := EncodeOrder([]int32{1, 2, 3})
	if _, err := DecodeGraph(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("order snapshot decoded as graph: %v", err)
	}
	id, err := TypeOf(data)
	if err != nil || id != TypeOrder {
		t.Fatalf("TypeOf = (%d, %v), want (%d, nil)", id, err, TypeOrder)
	}
}

// A version-skewed snapshot (older or newer format) is an ordinary miss.
func TestDecodeRejectsVersionSkew(t *testing.T) {
	data := bytes.Clone(EncodeOrder([]int32{1}))
	data[4]++ // bump the format version field
	if _, err := DecodeOrder(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("version skew: err = %v, want ErrCorrupt", err)
	}
}

// Structurally invalid payloads behind a valid checksum (a codec bug, not
// bit rot) are still rejected: FromCSRArenas validates the arenas.
func TestDecodeRejectsInvalidStructure(t *testing.T) {
	// A "graph" whose neighbor arena claims an out-of-range vertex.
	var e enc
	e.u64(2)                 // n
	e.u64(1)                 // m
	e.i32s([]int32{0, 1, 2}) // off
	e.i32s([]int32{9, 0})    // nbr: vertex 9 out of range
	data := finish(TypeGraph, e.buf)
	if _, err := DecodeGraph(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("invalid structure: err = %v, want ErrCorrupt", err)
	}
}
