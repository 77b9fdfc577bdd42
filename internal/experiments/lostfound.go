package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	"parsample/internal/analysis"
	"parsample/internal/cliques"
	"parsample/internal/datasets"
	"parsample/internal/graph"
	"parsample/internal/sampling"
)

// LostFoundRow reports, per network and ordering, the clusters that exist
// only in the original network (lost) and only in the filtered network
// (found) — Section IV.A's "Lost and Found clusters". Found clusters tend to
// be small, less dense subsystems hidden by noise; lost ones are sparse
// cycles that fall below the MCODE threshold when an edge or two is cut.
type LostFoundRow struct {
	Network   string
	Ordering  string
	Original  int // clusters in the original network
	Filtered  int // clusters in the filtered network
	Lost      int
	Found     int
	FoundHigh int // found clusters with AEES ≥ 3 (hidden biology revealed)
}

// LostFound computes the lost/found table over every network and ordering.
func LostFound(ctx context.Context) ([]LostFoundRow, error) {
	var rows []LostFoundRow
	for _, ds := range datasets.All() {
		if err := eng.Warm(ctx, input(ds), seqVariants()...); err != nil {
			return nil, err
		}
		orig, err := originalClusters(ctx, ds)
		if err != nil {
			return nil, err
		}
		for _, o := range graph.AllOrderings {
			filt, _, err := filteredClusters(ctx, ds, o, sampling.ChordalSeq, 1)
			if err != nil {
				return nil, err
			}
			ms, err := matches(ctx, ds, o, sampling.ChordalSeq, 1)
			if err != nil {
				return nil, err
			}
			lf := analysis.FindLostFound(len(orig), ms)
			foundHigh := 0
			for _, fi := range lf.Found {
				if filt[fi].Score.AEES >= analysis.DefaultAEESThreshold {
					foundHigh++
				}
			}
			rows = append(rows, LostFoundRow{
				Network:   ds.Name,
				Ordering:  o.String(),
				Original:  len(orig),
				Filtered:  len(filt),
				Lost:      len(lf.Lost),
				Found:     len(lf.Found),
				FoundHigh: foundHigh,
			})
		}
	}
	return rows, nil
}

// WriteLostFound renders the lost/found table.
func WriteLostFound(w io.Writer, rows []LostFoundRow) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "network\tordering\torig\tfiltered\tlost\tfound\tfound_AEES>=3")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%d\n",
			r.Network, r.Ordering, r.Original, r.Filtered, r.Lost, r.Found, r.FoundHigh)
	}
	tw.Flush()
}

// CliqueRetentionRow quantifies hypothesis H0 directly: the fraction of the
// original network's maximal cliques (size ≥ 3) that survive each filter
// intact.
type CliqueRetentionRow struct {
	Network   string
	Algorithm string
	EdgesKept int
	Retention float64
}

// CliqueRetentionStudy compares clique survival under the chordal filter and
// the two agnostic controls on the YNG network.
func CliqueRetentionStudy(ctx context.Context) ([]CliqueRetentionRow, error) {
	ds := datasets.YNG()
	ord := graph.Order(ds.G, graph.Natural, ds.Seed)
	var rows []CliqueRetentionRow
	for _, alg := range []sampling.Algorithm{
		sampling.ChordalSeq, sampling.RandomWalkSeq, sampling.ForestFireSeq,
	} {
		res, err := sampling.RunContext(ctx, alg, ds.G, sampling.Options{Order: ord, Seed: ds.Seed})
		if err != nil {
			return nil, err
		}
		fg := res.Subgraph
		rows = append(rows, CliqueRetentionRow{
			Network:   ds.Name,
			Algorithm: alg.String(),
			EdgesKept: fg.M(),
			Retention: cliques.CliqueRetention(ds.G, fg, 3),
		})
	}
	return rows, nil
}
