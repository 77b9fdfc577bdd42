package sampling

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"parsample/internal/chordal"
	"parsample/internal/comm"
	"parsample/internal/graph"
	"parsample/internal/mpisim"
)

// pairRuleNoComm is chordal-nocomm as it ran before the stamped triangle
// rule, kept as a reference: the block's chordal subgraph is extracted
// through CompactSubgraph, probed through a CSR over the whole vertex
// universe, and every pair of a group's members costs one probe.
func pairRuleNoComm(g *graph.Graph, opts Options) (*Result, error) {
	pt := graph.BlockPartition(opts.Order, opts.P)
	_, border := pt.InternalEdgeCount(g)
	ctx := context.Background()
	return runRanks(ctx, ChordalNoComm, g, opts, pt, border, func(r comm.Rank) (rankResult, error) {
		rank := r.ID()
		block := pt.Parts[rank]
		sub, toGlobal := g.CompactSubgraph(block)
		cr, err := chordal.MaximalSubgraphContext(ctx, sub, graph.NaturalOrder(sub.N()))
		if err != nil {
			return rankResult{}, err
		}
		edges, ops := cr.Edges, cr.Ops
		for i, e := range edges {
			edges[i] = graph.NormEdge(toGlobal[e.U], toGlobal[e.V])
		}
		chordalG := graph.FromEdges(g.N(), edges)
		var borders []graph.Edge
		for _, a := range block {
			for _, x := range g.Neighbors(a) {
				if pt.Part[x] != int32(rank) {
					borders = append(borders, graph.Edge{U: x, V: a})
					ops++
				}
			}
		}
		slices.SortFunc(borders, graph.CompareEdges)
		for lo := 0; lo < len(borders); {
			hi := lo + 1
			for hi < len(borders) && borders[hi].U == borders[lo].U {
				hi++
			}
			as := borders[lo:hi]
			admit := make([]bool, len(as))
			for i := range as {
				for j := i + 1; j < len(as); j++ {
					ops++
					if chordalG.HasEdgeFast(as[i].V, as[j].V) {
						admit[i], admit[j] = true, true
					}
				}
			}
			for i, ok := range admit {
				if ok {
					edges = append(edges, graph.NormEdge(as[i].V, as[i].U))
				}
			}
			lo = hi
		}
		r.Compute(ops)
		return newRankResult(edges, 0), nil
	})
}

// The stamped triangle rule must admit exactly the pair rule's border
// edges and charge the same per-rank ops, on hub-heavy RMAT where groups
// are large.
func TestStampedTriangleRuleMatchesPairRule(t *testing.T) {
	g := graph.RMAT(11, 12, 0.7, 0.12, 0.12, 4)
	for _, o := range []graph.Ordering{graph.Natural, graph.HighDegree} {
		ord := graph.Order(g, o, 1)
		for _, p := range []int{2, 8, 32} {
			t.Run(fmt.Sprintf("%v/P=%d", o, p), func(t *testing.T) {
				opts := Options{Order: ord, P: p}
				want, err := pairRuleNoComm(g, opts)
				if err != nil {
					t.Fatal(err)
				}
				got := mustRun(t, ChordalNoComm, g, opts)
				if !slices.Equal(got.Subgraph.Edges(), want.Subgraph.Edges()) {
					t.Fatalf("kept %d edges, pair rule %d", got.Subgraph.M(), want.Subgraph.M())
				}
				if !slices.Equal(got.Stats.RankOps, want.Stats.RankOps) {
					t.Fatalf("rank ops %v, pair rule %v", got.Stats.RankOps, want.Stats.RankOps)
				}
				if got.DuplicateBorderEdges != want.DuplicateBorderEdges {
					t.Fatalf("%d duplicates, pair rule %d", got.DuplicateBorderEdges, want.DuplicateBorderEdges)
				}
			})
		}
	}
}

// The k-way merge must build the Builder's graph from overlapping rank
// lists and count every extra copy of an edge as a duplicate.
func TestMergeRanksMatchesBuilder(t *testing.T) {
	const n = 300
	rng := rand.New(rand.NewSource(8))
	pool := graph.Gnm(n, 900, 8).Edges()
	for _, p := range []int{1, 2, 3, 8, 17} {
		parts := make([]rankResult, p)
		var all []graph.Edge
		for rk := range parts {
			var edges []graph.Edge
			for _, e := range pool {
				// Ranks share a border region: low edges overlap heavily.
				if rng.Intn(p+2) == 0 || (e.U < 40 && rng.Intn(2) == 0) {
					edges = append(edges, e)
				}
			}
			if rk == p-1 {
				edges = nil // an empty rank list
			}
			parts[rk] = rankResult{edges: edges, restarts: int64(rk)}
			all = append(all, edges...)
		}
		res, err := mergeRanks(ChordalNoComm, n, parts, 5, mpisim.NewComm(p))
		if err != nil {
			t.Fatal(err)
		}
		want := graph.FromEdges(n, all)
		gotOff, gotNbr := res.Subgraph.CSR()
		wantOff, wantNbr := want.CSR()
		if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotNbr, wantNbr) {
			t.Fatalf("P=%d: merged CSR differs from the Builder's", p)
		}
		if res.DuplicateBorderEdges != len(all)-want.M() || res.Stats.SerialOps != int64(len(all)) {
			t.Fatalf("P=%d: %d duplicates / %d serial ops, want %d / %d",
				p, res.DuplicateBorderEdges, res.Stats.SerialOps, len(all)-want.M(), len(all))
		}
		if res.Stats.Restarts != int64(p*(p-1)/2) {
			t.Fatalf("P=%d: restarts %d", p, res.Stats.Restarts)
		}
	}
}

// A parallel chordal run's duplicate count is the merge's: it equals the
// gathered edges minus the union's, on a graph whose borders both sides
// admit.
func TestMergeRanksDuplicateBorderEdges(t *testing.T) {
	g := graph.Gnm(400, 2400, 6)
	for _, p := range []int{2, 8} {
		res := mustRun(t, ChordalNoComm, g, Options{P: p})
		if res.DuplicateBorderEdges <= 0 {
			t.Fatalf("P=%d: no duplicate border edges on a dense graph", p)
		}
		if got := int(res.Stats.SerialOps) - res.Subgraph.M(); got != res.DuplicateBorderEdges {
			t.Fatalf("P=%d: %d duplicates, gathered-minus-kept %d", p, res.DuplicateBorderEdges, got)
		}
	}
}
