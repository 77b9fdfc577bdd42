package expr

import (
	"context"
	"math"

	"parsample/internal/graph"
)

// Many admission rules over one matrix: one sweep under the loosest rule,
// then a bucket per rule. A pair's admission depends only on its canonical
// coefficient, which does not depend on the rule, so each bucket is
// exactly that rule's own sweep. ThresholdSweep takes this path; no
// serving path does, since every served network sweeps one rule
// (BuildNetworkContext). The exported batch form is kept for the
// batch-ratio benchmarks.

// SweepSpec is one admission rule of a batched sweep. Unlike
// NetworkOptions, fields are literal: no negative-means-default sentinels
// (a negative MinAbsR is clamped to 0).
type SweepSpec struct {
	MinAbsR  float64 // minimum |correlation|
	MaxP     float64 // maximum p-value
	Negative bool    // admit strong negative correlations too
}

// BatchBuildNetworksContext evaluates every spec in one sweep and returns
// one thresholded correlation network per spec, each identical to the
// BuildNetworkContext result for the corresponding options. base supplies
// the statistic and worker count; its own threshold fields are ignored in
// favor of the specs.
func BatchBuildNetworksContext(ctx context.Context, m *Matrix, base NetworkOptions, specs []SweepSpec) ([]*graph.Graph, error) {
	if len(specs) == 0 {
		return nil, nil
	}
	rules := make([]rule, len(specs))
	loose := rule{pos: math.Inf(1), neg: math.Inf(1)}
	for i, sp := range specs {
		rules[i] = sp.rule(m.Samples)
		loose.pos = min(loose.pos, rules[i].pos)
		loose.neg = min(loose.neg, rules[i].neg)
	}
	scored, err := sweepMatrix(ctx, m, base, loose)
	if err != nil {
		return nil, err
	}
	gs := make([]*graph.Graph, len(rules))
	edges := make([]graph.Edge, 0, len(scored))
	for i, ru := range rules {
		// Per-spec poll: bucketing and CSR construction are O(edges) per
		// spec and run after the sweep's own polling has ended.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		edges = edges[:0]
		for _, se := range scored {
			if ru.admits(se.R) {
				edges = append(edges, graph.Edge{U: se.U, V: se.V})
			}
		}
		b := graph.NewBuilder(m.Genes)
		b.AddEdges(edges)
		gs[i] = b.Build()
	}
	return gs, nil
}
