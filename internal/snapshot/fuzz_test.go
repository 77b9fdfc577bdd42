package snapshot

import (
	"os"
	"testing"

	"parsample/internal/analysis"
	"parsample/internal/comm"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/sampling"
)

// FuzzSnapshotDecode feeds every input to all six decoders. The input's
// payload (the bytes between header and trailer when it carries an
// envelope, else all of it) is re-enveloped per artifact type with a
// matching length and checksum, so mutations reach the payload parsers
// instead of dying at the checksum. Every decode must return an error or
// a well-formed artifact, never panic; an accepted graph's neighbors must
// lie inside its vertex range.
func FuzzSnapshotDecode(f *testing.F) {
	golden, err := os.ReadFile("testdata/filtered_chordal_comm.snap")
	if err != nil {
		f.Fatal(err)
	}
	g := graph.Gnm(12, 20, 3)
	cluster := mcode.Cluster{ID: 1, Seed: 2, Vertices: []int32{0, 2, 5}, Edges: 3, Density: 1, Score: 3}
	scored := analysis.ScoredCluster{Cluster: cluster}
	scored.Score.AEES = 1.5
	for _, seed := range [][]byte{
		golden,
		EncodeGraph(g),
		EncodeOrder(graph.NaturalOrder(7)),
		EncodeClusters([]mcode.Cluster{cluster}),
		EncodeScored([]analysis.ScoredCluster{scored}),
		EncodeMatches([]analysis.Match{{FilteredID: 1, OriginalID: 2}}),
		EncodeFiltered(&sampling.Result{
			Algorithm: sampling.ChordalNoComm,
			Subgraph:  g,
			Stats:     comm.RunStats{P: 2, RankOps: []int64{3, 4}, RankSeconds: []float64{0.5, 0.25}},
		}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload := data
		if len(data) >= headerLen+trailerLen && string(data[:4]) == magic {
			payload = data[headerLen : len(data)-trailerLen]
		}
		checkGraph := func(what string, g *graph.Graph) {
			n := int32(g.N())
			for v := int32(0); v < n; v++ {
				for _, w := range g.Neighbors(v) {
					if w < 0 || w >= n {
						t.Fatalf("accepted %s has vertex %d adjacent to %d, outside [0,%d)", what, v, w, n)
					}
				}
			}
		}
		if g, err := DecodeGraph(finish(TypeGraph, payload)); err == nil {
			checkGraph("graph", g)
		}
		if r, err := DecodeFiltered(finish(TypeFiltered, payload)); err == nil {
			checkGraph("filtered subgraph", r.Subgraph)
		}
		DecodeOrder(finish(TypeOrder, payload))
		DecodeClusters(finish(TypeClusters, payload))
		DecodeScored(finish(TypeScored, payload))
		DecodeMatches(finish(TypeMatches, payload))
	})
}
