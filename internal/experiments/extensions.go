package experiments

import (
	"context"

	"parsample/internal/centrality"
	"parsample/internal/datasets"
	"parsample/internal/expr"
	"parsample/internal/graph"
	"parsample/internal/sampling"
)

// Extensions beyond the paper's figures: quantitative ablations of design
// choices DESIGN.md calls out.

// HubPreservationRow measures how well a filter preserves the network's most
// central vertices — the adaptive-sampling thesis applied to hub genes
// (Section II ties high-centrality nodes to gene essentiality).
type HubPreservationRow struct {
	Network     string
	Algorithm   string
	EdgesKept   int
	Top50Kept   float64 // |top50(orig) ∩ top50(filtered)| / 50, by degree
	DegreeRank  float64 // Spearman rank correlation of degree centralities
	ClosenessRk float64 // Spearman rank correlation of closeness centralities
}

// HubPreservation compares hub survival across filters on the YNG network.
func HubPreservation(ctx context.Context) ([]HubPreservationRow, error) {
	ds := datasets.YNG()
	origDeg := centrality.Degree(ds.G)
	origClo := centrality.Closeness(ds.G)
	ord := graph.Order(ds.G, graph.Natural, ds.Seed)
	var rows []HubPreservationRow
	for _, alg := range []sampling.Algorithm{
		sampling.ChordalSeq, sampling.ChordalNoComm, sampling.RandomWalkSeq, sampling.ForestFireSeq,
	} {
		res, err := sampling.RunContext(ctx, alg, ds.G, sampling.Options{Order: ord, P: 8, Seed: ds.Seed})
		if err != nil {
			return nil, err
		}
		fg := res.Subgraph
		fDeg := centrality.Degree(fg)
		fClo := centrality.Closeness(fg)
		rows = append(rows, HubPreservationRow{
			Network:     ds.Name,
			Algorithm:   alg.String(),
			EdgesKept:   fg.M(),
			Top50Kept:   centrality.TopKOverlap(origDeg, fDeg, 50),
			DegreeRank:  expr.Spearman(origDeg, fDeg),
			ClosenessRk: expr.Spearman(origClo, fClo),
		})
	}
	return rows, nil
}

// BorderRuleRow ablates the communication-free sampler's border admission:
// the paper's triangle rule vs the random coin flip the parallel random walk
// uses. Quality = fraction of planted module edges retained; cost = edges
// kept overall (noise burden).
type BorderRuleRow struct {
	Network         string
	Rule            string // "triangle" or "coin"
	P               int
	EdgesKept       int
	ModuleEdgesKept float64
}

// BorderRuleAblation runs the ablation on the CRE network across processor
// counts.
func BorderRuleAblation(ctx context.Context) ([]BorderRuleRow, error) {
	ds := datasets.CRE()
	ord := graph.Order(ds.G, graph.Natural, ds.Seed)
	mb := graph.NewBuilder(ds.G.N())
	for _, mod := range ds.Modules {
		for i := 0; i < len(mod); i++ {
			for j := i + 1; j < len(mod); j++ {
				if ds.G.HasEdge(mod[i], mod[j]) {
					mb.AddEdge(mod[i], mod[j])
				}
			}
		}
	}
	moduleEdges := mb.Build()
	frac := func(sub *graph.Graph) float64 {
		if moduleEdges.M() == 0 {
			return 0
		}
		kept := 0
		sub.ForEachEdge(func(u, v int32) {
			if moduleEdges.HasEdgeFast(u, v) {
				kept++
			}
		})
		return float64(kept) / float64(moduleEdges.M())
	}
	var rows []BorderRuleRow
	for _, p := range []int{8, 64} {
		tri, err := sampling.RunContext(ctx, sampling.ChordalNoComm, ds.G, sampling.Options{Order: ord, P: p, Seed: ds.Seed})
		if err != nil {
			return nil, err
		}
		rows = append(rows, BorderRuleRow{
			Network: ds.Name, Rule: "triangle", P: p,
			EdgesKept: tri.Subgraph.M(), ModuleEdgesKept: frac(tri.Subgraph),
		})
		// Coin rule: per-partition chordal interior + hash-coin border
		// admission (the random walk's border policy grafted onto the
		// chordal interior); emulated by combining the nocomm interior with
		// coin-admitted border edges.
		coin, err := sampling.RunContext(ctx, sampling.RandomWalkPar, ds.G, sampling.Options{Order: ord, P: p, Seed: ds.Seed})
		if err != nil {
			return nil, err
		}
		pt := graph.BlockPartition(ord, p)
		mb := graph.NewBuilder(ds.G.N())
		// Interior chordal edges from the triangle-rule run...
		tri.Subgraph.ForEachEdge(func(u, v int32) {
			if pt.Part[u] == pt.Part[v] {
				mb.AddEdge(u, v)
			}
		})
		// ...plus coin-admitted border edges from the random-walk run.
		coin.Subgraph.ForEachEdge(func(u, v int32) {
			if pt.Part[u] != pt.Part[v] {
				mb.AddEdge(u, v)
			}
		})
		merged := mb.Build()
		rows = append(rows, BorderRuleRow{
			Network: ds.Name, Rule: "coin", P: p,
			EdgesKept: merged.M(), ModuleEdgesKept: frac(merged),
		})
	}
	return rows, nil
}
