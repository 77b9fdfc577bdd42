package sampling

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"testing"

	"parsample/internal/datasets"
	"parsample/internal/graph"
)

// goldenSamplerDigests pins every sampler's output to values computed when
// per-rank edges were still accumulated in sets: a bitset matrix up to
// 16384 vertices (YNG, 5348 vertices) and a hash set above (CRE, 27,896
// vertices), so both former paths are covered. Each digest
// covers the four orderings × P ∈ {1, 2, 4, 8}: the subgraph's sorted
// edges, DuplicateBorderEdges, BorderEdges and every RunStats field except
// the wall-clock telemetry (RankWallSeconds, WallSeconds, Measured).
var goldenSamplerDigests = map[string]string{
	"YNG/chordal-seq":    "a14b0e99c0ea35ba6f32f928f47bc1d7",
	"YNG/chordal-comm":   "2ba7c095600afb75aca28d469d2ab139",
	"YNG/chordal-nocomm": "7fd7c886492a42da041ff2c115014dff",
	"YNG/randomwalk-seq": "47882b818432b7859d72f0ef8c35fe99",
	"YNG/randomwalk-par": "1573e5f5c09f495ef15f3b24fd748286",
	"YNG/forestfire-seq": "dd8791560e802c5ae3305e8dfc2a62ac",
	"YNG/forestfire-par": "0867e33c0878219f7d43524c61b3d69f",
	"CRE/chordal-seq":    "d845ab9d71728d004dc462912af74a52",
	"CRE/chordal-comm":   "30f38e77854046edbf52e492d5a99cf0",
	"CRE/chordal-nocomm": "a310ce4968507f1cfcbcec5e53031dec",
	"CRE/randomwalk-seq": "54d5af998becb931f42c9c334f7d32fd",
	"CRE/randomwalk-par": "09bb3e531321d72a72b08c619db3fa81",
	"CRE/forestfire-seq": "54b875463ec21cc972603aa6aec72e4f",
	"CRE/forestfire-par": "1ade0ef1443273c97bc4999fc34ade42",
}

// writeResultDigest feeds one run's identity-relevant fields into h.
func writeResultDigest(h hash.Hash, n int, res *Result) {
	w := func(x int64) { h.Write(binary.LittleEndian.AppendUint64(nil, uint64(x))) }
	edges := res.Graph(n).Edges()
	w(int64(len(edges)))
	for _, e := range edges {
		w(int64(e.U)<<32 | int64(e.V))
	}
	w(int64(res.DuplicateBorderEdges))
	w(int64(res.BorderEdges))
	s := res.Stats
	w(int64(s.P))
	w(int64(len(s.RankOps)))
	for _, x := range s.RankOps {
		w(x)
	}
	w(int64(len(s.RankSeconds)))
	for _, x := range s.RankSeconds {
		w(int64(math.Float64bits(x)))
	}
	w(s.Messages)
	w(s.Bytes)
	w(s.CollMessages)
	w(s.CollBytes)
	w(s.SerialOps)
	w(s.Restarts)
}

func TestSamplerOutputGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 224 sampler cells on YNG and CRE")
	}
	got := map[string]string{}
	for _, ds := range []*datasets.Dataset{datasets.YNG(), datasets.CRE()} {
		g := ds.G
		orders := make([][]int32, len(graph.AllOrderings))
		for i, o := range graph.AllOrderings {
			orders[i] = graph.Order(g, o, ds.Seed)
		}
		for _, alg := range All {
			h := sha256.New()
			for _, ord := range orders {
				for _, p := range []int{1, 2, 4, 8} {
					writeResultDigest(h, g.N(), mustRun(t, alg, g, Options{Order: ord, P: p, Seed: ds.Seed}))
				}
			}
			key := fmt.Sprintf("%s/%v", ds.Name, alg)
			got[key] = hex.EncodeToString(h.Sum(nil))[:32]
			if want := goldenSamplerDigests[key]; got[key] != want {
				t.Errorf("%s: digest %s, want %s", key, got[key], want)
			}
		}
	}
	if t.Failed() {
		for _, ds := range []string{"YNG", "CRE"} {
			for _, alg := range All {
				key := fmt.Sprintf("%s/%v", ds, alg)
				t.Logf("\t%q: %q,", key, got[key])
			}
		}
	}
}
