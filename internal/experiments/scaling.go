package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"text/tabwriter"

	"parsample/internal/comm"
	"parsample/internal/datasets"
	"parsample/internal/graph"
	"parsample/internal/sampling"
)

// The scalability study generalizes Figure 10 into a configurable sweep:
// P ∈ {1..64} × vertex orderings × parallel algorithms over the synthetic
// GSE networks plus Gnm and R-MAT stress inputs, reporting modeled cluster
// execution time, speedup and parallel efficiency from the clocked runtime.

// ScalingNetwork is one input of the scalability sweep.
type ScalingNetwork struct {
	Name string
	G    *graph.Graph
	Seed int64
}

// ScalingNetworks returns the default sweep inputs: the paper's small and
// large evaluation networks plus two structural stress generators — a
// uniform Gnm graph (no community structure, borders everywhere) and an
// R-MAT graph (heavy-tailed degrees, the standard parallel-graph stressor).
func ScalingNetworks() []ScalingNetwork {
	return append(paperScalingNetworks(),
		ScalingNetwork{Name: "GNM", G: graph.Gnm(16384, 65536, 1101), Seed: 1101},
		ScalingNetwork{Name: "RMAT", G: graph.RMAT(14, 8, 0, 0, 0, 1102), Seed: 1102},
	)
}

// paperScalingNetworks returns the paper's small and large evaluation
// networks, the inputs of Figure 10.
func paperScalingNetworks() []ScalingNetwork {
	return []ScalingNetwork{
		{Name: "YNG", G: datasets.YNG().G, Seed: datasets.YNG().Seed},
		{Name: "CRE", G: datasets.CRE().G, Seed: datasets.CRE().Seed},
	}
}

// ScalingConfig parameterizes the sweep.
type ScalingConfig struct {
	Networks   []ScalingNetwork
	Orderings  []graph.Ordering
	Algorithms []sampling.Algorithm
	Processors []int // must start with the baseline processor count
	Model      comm.CostModel
}

// DefaultScalingConfig is the published study: the paper's processor sweep,
// the natural and high-degree orderings, and the three parallel samplers of
// Figure 10 plus the forest-fire extension, all under the Figure 10 cost
// model.
func DefaultScalingConfig() ScalingConfig {
	return ScalingConfig{
		Networks:  ScalingNetworks(),
		Orderings: []graph.Ordering{graph.Natural, graph.HighDegree},
		Algorithms: []sampling.Algorithm{
			sampling.ChordalComm, sampling.ChordalNoComm,
			sampling.RandomWalkPar, sampling.ForestFirePar,
		},
		Processors: Fig10Processors,
		Model:      fig10Model,
	}
}

// ScalingRow is one point of the sweep.
type ScalingRow struct {
	Network        string
	Ordering       string
	Algorithm      string
	P              int
	ModeledSeconds float64
	Speedup        float64 // time at the baseline P over time at this P
	Efficiency     float64 // speedup / (P / baseline P)
	MaxRankOps     int64   // the busiest rank's operation count
	Messages       int64   // point-to-point (sampling phase)
	CollMessages   int64   // result gather
	Bytes          int64   // point-to-point payload bytes
	EdgesKept      int
}

// Scaling runs the sweep. Rows come out grouped per (network, ordering,
// algorithm) series in the order of cfg.Processors; speedup and efficiency
// are relative to the series' first processor count.
func Scaling(ctx context.Context, cfg ScalingConfig) ([]ScalingRow, error) {
	if len(cfg.Processors) == 0 {
		return nil, fmt.Errorf("experiments: scaling sweep has no processor counts")
	}
	var rows []ScalingRow
	for _, net := range cfg.Networks {
		for _, o := range cfg.Orderings {
			ord := graph.Order(net.G, o, net.Seed)
			for _, alg := range cfg.Algorithms {
				base := 0.0
				for i, p := range cfg.Processors {
					res, err := sampling.RunContext(ctx, alg, net.G, sampling.Options{
						Order: ord, P: p, Seed: net.Seed, Model: &cfg.Model,
					})
					if err != nil {
						return nil, err
					}
					t := cfg.Model.Time(&res.Stats)
					if i == 0 {
						base = t
					}
					speedup := 0.0
					if t > 0 {
						speedup = base / t
					}
					eff := speedup * float64(cfg.Processors[0]) / float64(p)
					rows = append(rows, ScalingRow{
						Network:        net.Name,
						Ordering:       o.String(),
						Algorithm:      alg.String(),
						P:              p,
						ModeledSeconds: t,
						Speedup:        speedup,
						Efficiency:     eff,
						MaxRankOps:     res.Stats.MaxRankOps(),
						Messages:       res.Stats.Messages,
						CollMessages:   res.Stats.CollMessages,
						Bytes:          res.Stats.Bytes,
						EdgesKept:      res.Subgraph.M(),
					})
				}
			}
		}
	}
	return rows, nil
}

// WriteScaling renders the sweep as a point table followed by per-series
// speedup curves (one bar per processor count, log2-scaled so ideal scaling
// climbs one cell per doubling).
func WriteScaling(w io.Writer, rows []ScalingRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "network\tordering\talgorithm\tP\tmodeled_s\tspeedup\tefficiency\tmsgs\tcoll_msgs\tedges_kept")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.4f\t%.2f\t%.2f\t%d\t%d\t%d\n",
			r.Network, r.Ordering, r.Algorithm, r.P, r.ModeledSeconds,
			r.Speedup, r.Efficiency, r.Messages, r.CollMessages, r.EdgesKept)
	}
	tw.Flush()

	fmt.Fprintln(w, "\n-- speedup curves (column = processor count, height = log2 speedup) --")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	for _, series := range groupSeries(rows) {
		var curve []string
		for _, r := range series {
			curve = append(curve, speedupBar(r.Speedup))
		}
		first := series[0]
		fmt.Fprintf(tw, "%s/%s\t%s\t%s\n",
			first.Network, first.Ordering, first.Algorithm, strings.Join(curve, " "))
	}
	tw.Flush()
	fmt.Fprintln(w, "(each ▏…█ column is one of the processor counts above, in sweep order;")
	fmt.Fprintln(w, " '.' marks a slowdown below the baseline)")
}

// groupSeries splits rows into consecutive (network, ordering, algorithm)
// series, preserving order.
func groupSeries(rows []ScalingRow) [][]ScalingRow {
	var out [][]ScalingRow
	for i := 0; i < len(rows); {
		j := i + 1
		for j < len(rows) && rows[j].Network == rows[i].Network &&
			rows[j].Ordering == rows[i].Ordering && rows[j].Algorithm == rows[i].Algorithm {
			j++
		}
		out = append(out, rows[i:j])
		i = j
	}
	return out
}

// speedupBar maps a speedup to a one-rune bar: '.' below 1×, then one
// eighth-block step per half-doubling, saturating at 16×.
func speedupBar(s float64) string {
	if s < 1 {
		return "."
	}
	blocks := []rune("▏▎▍▌▋▊▉█")
	idx := int(math.Log2(s) * 2)
	if idx >= len(blocks) {
		idx = len(blocks) - 1
	}
	return string(blocks[idx])
}
