package experiments

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// WriteFig4 renders the Figure 4 AEES table.
func WriteFig4(w io.Writer, rows []Fig4Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "network\tvariant\tcluster\tsize\tAEES")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\tC%d\t%d\t%.2f\n", r.Network, r.Variant, r.ClusterID, r.Size, r.AEES)
	}
	tw.Flush()
}

// WriteOverlapPoints renders Figure 5/6/7 scatter data.
func WriteOverlapPoints(w io.Writer, rows []OverlapPoint) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "network\tordering\tcluster\tAEES\tnode_ov\tedge_ov\tnew")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\tC%d\t%.2f\t%.2f\t%.2f\t%v\n",
			r.Network, r.Ordering, r.ClusterID, r.AEES, r.NodeOv, r.EdgeOv, r.New)
	}
	tw.Flush()
}

// WriteFig8 renders the sensitivity/specificity table.
func WriteFig8(w io.Writer, rows []Fig8Row) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "overlap\tTP\tFP\tFN\tTN\tsensitivity\tspecificity")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%.1f%%\t%.1f%%\n",
			r.Kind, r.Counts.TP, r.Counts.FP, r.Counts.FN, r.Counts.TN,
			100*r.Sensitivity, 100*r.Specificity)
	}
	tw.Flush()
}

// WriteFig9 renders the case study.
func WriteFig9(w io.Writer, r Fig9Result) {
	fmt.Fprintf(w, "case study (%s %s): original cluster %d AEES %.2f -> filtered cluster %d AEES %.2f\n",
		r.Network, r.Ordering, r.OriginalID, r.OriginalAEES, r.FilteredID, r.FilteredAEES)
	fmt.Fprintf(w, "  node overlap %.1f%%, edge overlap %.1f%%, dominant GO term %d\n",
		100*r.NodeOv, 100*r.EdgeOv, r.DominantTerm)
	fmt.Fprintf(w, "  (paper: UNT cluster 18 AEES 2.33 -> UNT-HD cluster 10 AEES 4.17, 66.7%% node / 28%% edge overlap)\n")
}

// WriteFig10 renders the scalability series.
func WriteFig10(w io.Writer, rows []ScalingRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "network\talgorithm\tP\tmodeled_s\tmax_rank_ops\tmsgs\tbytes\tedges_kept")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%.4f\t%d\t%d\t%d\t%d\n",
			r.Network, r.Algorithm, r.P, r.ModeledSeconds, r.MaxRankOps, r.Messages, r.Bytes, r.EdgesKept)
	}
	tw.Flush()
}

// WriteFigDist renders the measured-vs-modeled distributed study.
func WriteFigDist(w io.Writer, rows []DistRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "algorithm\tP\tmeasured_s\tmodeled_s\tmeasured_speedup\tmodeled_speedup\tefficiency\tmodel_err_pct\tmatch\tedges_kept")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.4f\t%.2f\t%.2f\t%.2f\t%+.1f\t%v\t%d\n",
			r.Algorithm, r.P, r.MeasuredSeconds, r.ModeledSeconds,
			r.MeasuredSpeedup, r.ModeledSpeedup, r.Efficiency, r.ModelErrorPct, r.Match, r.EdgesKept)
	}
	tw.Flush()
}

// WriteFig11 renders the parallel-quality comparison.
func WriteFig11(w io.Writer, overlaps []Fig11OverlapRow, tops []Fig11TopRow) {
	fmt.Fprintln(w, "-- cluster overlap with ORIG (CRE, natural order) --")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "P\tcluster\tnode_ov\tedge_ov\tAEES")
	for _, r := range overlaps {
		fmt.Fprintf(tw, "%d\tC%d\t%.2f\t%.2f\t%.2f\n", r.P, r.ClusterID, r.NodeOv, r.EdgeOv, r.AEES)
	}
	tw.Flush()
	fmt.Fprintln(w, "-- clusters with AEES > 3.0 --")
	tw = tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "source\tcluster\tsize\tedges\tavg_depth(AEES)\tmax_score")
	for _, r := range tops {
		fmt.Fprintf(tw, "%s\tC%d\t%d\t%d\t%.2f\t%d\n", r.Source, r.ClusterID, r.Size, r.Edges, r.AEES, r.MaxScore)
	}
	tw.Flush()
}

// WriteRandomWalk renders the control-filter cluster counts.
func WriteRandomWalk(w io.Writer, rows []RandomWalkRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "network\tedges_orig\tedges_kept\tclusters")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\n", r.Network, r.EdgesOrig, r.EdgesKept, r.ClusterCount)
	}
	tw.Flush()
}

// Header prints a section banner.
func Header(w io.Writer, title string) {
	fmt.Fprintf(w, "\n== %s ==\n%s\n", title, strings.Repeat("-", len(title)+6))
}
