// Command experiments regenerates the paper's tables and figures as text
// tables.
//
// Usage:
//
//	experiments -fig 4        # one figure (4,5,6,7,8,9,10,11)
//	experiments -fig rw       # the random-walk control result (Section IV.B)
//	experiments -fig dist     # measured Figure 10: real TCP ranks vs the model
//	experiments -fig all      # everything (several minutes)
//
// -fig dist runs the four parallel samplers distributed across worker
// processes (in-process loopback workers by default; point -workers at
// parsample-worker addresses for a real cluster) and prints measured
// wall-clock speedup next to the cost model's prediction. The run fails if
// any distributed edge set differs from the simulator's.
//
// Figures run on the shared pipeline engine, so a full sweep computes every
// shared filtered-network/cluster/score chain once. A failing figure is
// reported and the sweep continues with the next one; the exit status is
// nonzero if any figure failed. Ctrl-C cancels the in-flight figure
// mid-kernel through the engine's context plumbing.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"parsample/internal/experiments"
	"parsample/internal/transport"
)

// maxInt returns the largest element of a non-empty slice.
func maxInt(xs []int) int {
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 4|5|6|7|8|9|10|11|dist|rw|lostfound|cliques|hubs|border|corr|scaling|all")
	cacheStats := flag.Bool("cachestats", false, "print pipeline artifact-store statistics after the run")
	workers := flag.String("workers", "", "comma-separated parsample-worker addresses for -fig dist (empty: boot in-process workers)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var failed []string
	run := func(name string, fn func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if ctx.Err() != nil {
			return // interrupted: skip the rest of the sweep
		}
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: figure %s: %v\n", name, err)
			failed = append(failed, name)
		}
	}

	out := os.Stdout
	run("4", func() error {
		rows, err := experiments.Fig4(ctx)
		if err != nil {
			return err
		}
		experiments.Header(out, "Figure 4: AEES per cluster across orderings (YNG, MID)")
		experiments.WriteFig4(out, rows)
		return nil
	})
	run("5", func() error {
		pts, err := experiments.Fig5(ctx)
		if err != nil {
			return err
		}
		experiments.Header(out, "Figure 5: node/edge overlap, original vs sampled (UNT, CRE)")
		experiments.WriteOverlapPoints(out, pts)
		return nil
	})
	run("6", func() error {
		pts, err := experiments.Fig6(ctx)
		if err != nil {
			return err
		}
		experiments.Header(out, "Figure 6: node overlap vs AEES (all networks)")
		experiments.WriteOverlapPoints(out, pts)
		return nil
	})
	run("7", func() error {
		pts, err := experiments.Fig6(ctx) // Figure 7 plots Figure 6's points on the edge-overlap axis
		if err != nil {
			return err
		}
		experiments.Header(out, "Figure 7: edge overlap vs AEES (all networks)")
		experiments.WriteOverlapPoints(out, pts)
		return nil
	})
	run("8", func() error {
		rows, err := experiments.Fig8(ctx)
		if err != nil {
			return err
		}
		experiments.Header(out, "Figure 8: sensitivity/specificity of node vs edge overlap")
		experiments.WriteFig8(out, rows)
		return nil
	})
	run("9", func() error {
		r, err := experiments.Fig9(ctx)
		if err != nil {
			return err
		}
		experiments.Header(out, "Figure 9: filtering case study (AEES improvement)")
		experiments.WriteFig9(out, r)
		return nil
	})
	run("10", func() error {
		rows, err := experiments.Fig10(ctx)
		if err != nil {
			return err
		}
		experiments.Header(out, "Figure 10: scalability of the sampling algorithms (modeled cluster time)")
		experiments.WriteFig10(out, rows)
		return nil
	})
	run("dist", func() error {
		addrs := strings.Split(*workers, ",")
		if *workers == "" {
			var stop func()
			var err error
			addrs, stop, err = experiments.StartLocalWorkers(maxInt(experiments.DistProcessors) - 1)
			if err != nil {
				return err
			}
			defer stop()
		}
		cl, err := transport.Dial("127.0.0.1:0", addrs)
		if err != nil {
			return err
		}
		defer cl.Close()
		rows, model, err := experiments.FigDist(ctx, cl, experiments.DistGraph(), experiments.DistProcessors)
		if err != nil {
			return err
		}
		experiments.Header(out, "Figure 10 (measured): distributed TCP ranks, measured vs modeled speedup")
		fmt.Fprintf(out, "calibrated model: %.3gs/op, %.3gs/msg overhead, %.3gs/byte\n",
			model.SecondsPerOp, model.OverheadSeconds, model.SecondsPerByte)
		experiments.WriteFigDist(out, rows)
		return nil
	})
	run("11", func() error {
		ov, tops, err := experiments.Fig11(ctx)
		if err != nil {
			return err
		}
		experiments.Header(out, "Figure 11: CRE natural order, 1P vs 64P quality")
		experiments.WriteFig11(out, ov, tops)
		return nil
	})
	run("scaling", func() error {
		rows, err := experiments.Scaling(ctx, experiments.DefaultScalingConfig())
		if err != nil {
			return err
		}
		experiments.Header(out, "Scalability study: P=1..64 x orderings x algorithms (modeled cluster time)")
		experiments.WriteScaling(out, rows)
		return nil
	})
	run("rw", func() error {
		rows, err := experiments.RandomWalkClusters(ctx)
		if err != nil {
			return err
		}
		experiments.Header(out, "Section IV.B: random-walk control filter cluster counts")
		experiments.WriteRandomWalk(out, rows)
		return nil
	})
	run("hubs", func() error {
		rows, err := experiments.HubPreservation(ctx)
		if err != nil {
			return err
		}
		experiments.Header(out, "Extension: hub (centrality) preservation per filter")
		for _, r := range rows {
			fmt.Fprintf(out, "%-8s %-16s edges=%5d top50=%.2f degRank=%.2f cloRank=%.2f\n",
				r.Network, r.Algorithm, r.EdgesKept, r.Top50Kept, r.DegreeRank, r.ClosenessRk)
		}
		return nil
	})
	run("lostfound", func() error {
		rows, err := experiments.LostFound(ctx)
		if err != nil {
			return err
		}
		experiments.Header(out, "Section IV.A: lost and found clusters per network and ordering")
		experiments.WriteLostFound(out, rows)
		return nil
	})
	run("cliques", func() error {
		rows, err := experiments.CliqueRetentionStudy(ctx)
		if err != nil {
			return err
		}
		experiments.Header(out, "Hypothesis H0: maximal clique retention per filter (YNG)")
		for _, r := range rows {
			fmt.Fprintf(out, "%-8s %-16s edges=%5d clique-retention=%.2f\n",
				r.Network, r.Algorithm, r.EdgesKept, r.Retention)
		}
		return nil
	})
	run("corr", func() error {
		rows, err := experiments.CorrelationFrontEnd(ctx)
		if err != nil {
			return err
		}
		experiments.Header(out, "Extension: correlation front end (engine build + threshold cliff)")
		for _, r := range rows {
			fmt.Fprintf(out, "%-9s %4dx%-3d edges=%6d density=%.5f module-recall=%.2f build=%.3fs\n",
				r.Kind, r.Genes, r.Samples, r.Edges, r.Density, r.ModuleEdgeRecall, r.BuildSeconds)
		}
		pts, err := experiments.CorrelationCliff(ctx)
		if err != nil {
			return err
		}
		for _, p := range pts {
			fmt.Fprintf(out, "  |rho| >= %.2f  edges=%6d maxdeg=%4d\n", p.MinAbsR, p.Edges, p.MaxDegree)
		}
		return nil
	})
	run("border", func() error {
		rows, err := experiments.BorderRuleAblation(ctx)
		if err != nil {
			return err
		}
		experiments.Header(out, "Extension: border-admission ablation (triangle rule vs coin)")
		for _, r := range rows {
			fmt.Fprintf(out, "%-8s rule=%-8s P=%-3d edges=%6d module-edges-kept=%.2f\n",
				r.Network, r.Rule, r.P, r.EdgesKept, r.ModuleEdgesKept)
		}
		return nil
	})

	if *cacheStats {
		s := experiments.Engine().Stats()
		fmt.Fprintf(os.Stderr, "pipeline store: %d hits, %d misses, %d shared, %d evictions, %d entries, %.1f MiB used\n",
			s.Hits, s.Misses, s.Shared, s.Evictions, s.Entries, float64(s.BytesUsed)/(1<<20))
	}
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "experiments: interrupted")
		os.Exit(130)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d figure(s) failed: %s\n", len(failed), strings.Join(failed, ", "))
		os.Exit(1)
	}
}
