package expr

import (
	"context"

	"parsample/internal/graph"
)

// Batched sweeps: one standardize+tile pass over a matrix evaluating many
// admission rules at once. The marginal cost of an extra rule is one
// threshold comparison per candidate pair — the O(genes²·samples) kernel
// work is shared — so k concurrent requests that differ only in their
// filter parameters cost barely more than one (the <1.3× criterion in
// bench_test.go). BuildNetworkContext is this sweep with a single rule;
// no serving path passes more than one, since the engine's network stage
// sweeps each request's network on its own. The multi-rule form is kept
// for the k-rule batch-ratio benchmarks. ThresholdSweep's
// bucket-after-one-loose-sweep remains the better shape when every
// threshold shares one sign gate and p-cut.

// SweepSpec is one admission rule of a batched sweep. Unlike
// NetworkOptions, fields are literal: no negative-means-default sentinels
// (a negative MinAbsR is clamped to 0).
type SweepSpec struct {
	MinAbsR  float64 // minimum |correlation|
	MaxP     float64 // maximum p-value
	Negative bool    // admit strong negative correlations too
}

// SweepSpec extracts o's admission rule with its default sentinels
// resolved, for batching alongside other rules that share o's statistic
// and precision.
func (o NetworkOptions) SweepSpec() SweepSpec {
	o = o.withDefaults()
	return SweepSpec{MinAbsR: o.MinAbsR, MaxP: o.MaxP, Negative: o.Negative}
}

// BatchBuildNetworksContext evaluates every spec in one sweep and returns
// one thresholded correlation network per spec, each identical to the
// BuildNetworkContext result for the corresponding options. base supplies
// the statistic, precision and worker count; its own threshold fields are
// ignored in favor of the specs.
func BatchBuildNetworksContext(ctx context.Context, m *Matrix, base NetworkOptions, specs []SweepSpec) ([]*graph.Graph, error) {
	outs, err := batchScoredContext(ctx, m, base, specs)
	if err != nil {
		return nil, err
	}
	gs := make([]*graph.Graph, len(outs))
	for i, scored := range outs {
		// Per-spec poll: CSR construction is O(edges) per spec and runs
		// after the sweep's own polling has ended.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		b := graph.NewBuilder(m.Genes)
		b.AddEdges(toEdges(scored))
		gs[i] = b.Build()
	}
	return gs, nil
}
