package expr

import (
	"context"

	"parsample/internal/graph"
)

// SweepPoint is one row of a correlation-threshold sweep.
type SweepPoint struct {
	MinAbsR   float64
	Edges     int
	Density   float64
	MaxDegree int
}

// ThresholdSweep builds the correlation network at each |ρ| threshold and
// reports its size. The paper thresholds at 0.95; the sweep shows the
// edge-count cliff that motivates the choice (too low floods the network
// with coincidental correlations, too high erases modules).
//
// opts selects the correlation statistic, p-value cut, worker count and
// sign handling; its MinAbsR is ignored (the sweep's own thresholds
// replace it, a negative one counting as 0). The points are one
// BatchBuildNetworksContext call: one engine sweep at the loosest
// threshold, bucketed per point, so no correlation is computed twice.
func ThresholdSweep(m *Matrix, thresholds []float64, opts NetworkOptions) []SweepPoint {
	if len(thresholds) == 0 {
		return nil
	}
	opts = opts.withDefaults()
	specs := make([]SweepSpec, len(thresholds))
	for i, t := range thresholds {
		specs[i] = SweepSpec{MinAbsR: t, MaxP: opts.MaxP, Negative: opts.Negative}
	}
	gs, _ := BatchBuildNetworksContext(context.Background(), m, opts, specs)
	out := make([]SweepPoint, len(gs))
	for i, g := range gs {
		out[i] = SweepPoint{
			MinAbsR:   thresholds[i],
			Edges:     g.M(),
			Density:   graph.Density(g),
			MaxDegree: g.MaxDegree(),
		}
	}
	return out
}
