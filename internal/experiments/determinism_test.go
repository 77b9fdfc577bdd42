package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"

	"parsample/internal/analysis"
	"parsample/internal/datasets"
	"parsample/internal/graph"
	"parsample/internal/sampling"
)

// mustScored is ScoredClusters under the test's context; it fails the test
// on an error.
func mustScored(t *testing.T, ds *datasets.Dataset, g *graph.Graph) []analysis.ScoredCluster {
	t.Helper()
	sc, err := ScoredClusters(t.Context(), ds, g)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// directFig4 regenerates Figure 4 exactly the way the pre-engine drivers
// did: straight kernel composition (Filter + ScoredClusters), no cache.
func directFig4(t *testing.T) []Fig4Row {
	t.Helper()
	var rows []Fig4Row
	for _, ds := range []*datasets.Dataset{datasets.YNG(), datasets.MID()} {
		for _, sc := range mustScored(t, ds, ds.G) {
			rows = append(rows, Fig4Row{ds.Name, "ORIG", sc.Cluster.ID, len(sc.Cluster.Vertices), sc.Score.AEES})
		}
		for _, o := range graph.AllOrderings {
			fn, err := Filter(t.Context(), ds, o, sampling.ChordalSeq, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, sc := range mustScored(t, ds, fn.G) {
				rows = append(rows, Fig4Row{ds.Name, o.String(), sc.Cluster.ID, len(sc.Cluster.Vertices), sc.Score.AEES})
			}
		}
	}
	return rows
}

// The engine-backed Fig4 must be byte-identical to the direct kernel
// composition at fixed seeds — the memoizing store and the concurrent Warm
// fan-out change only when artifacts are computed, never what.
func TestFig4EngineMatchesDirectByteIdentical(t *testing.T) {
	engineRows, err := Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	directRows := directFig4(t)
	if !reflect.DeepEqual(engineRows, directRows) {
		t.Fatalf("engine rows differ from direct rows (%d vs %d)", len(engineRows), len(directRows))
	}
	var engineBuf, directBuf bytes.Buffer
	WriteFig4(&engineBuf, engineRows)
	WriteFig4(&directBuf, directRows)
	if !bytes.Equal(engineBuf.Bytes(), directBuf.Bytes()) {
		t.Fatal("rendered figure tables are not byte-identical")
	}
}

// The engine's match tables agree with the direct MatchClustersContext composition
// (the artifact behind Figures 5-9 and the lost/found table).
func TestMatchesEngineMatchesDirect(t *testing.T) {
	ds := datasets.YNG()
	ctx := context.Background()
	for _, o := range graph.AllOrderings {
		ms, err := matches(ctx, ds, o, sampling.ChordalSeq, 1)
		if err != nil {
			t.Fatal(err)
		}
		fn, err := Filter(ctx, ds, o, sampling.ChordalSeq, 1)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := analysis.MatchClustersContext(ctx, ds.G, mustScored(t, ds, ds.G), fn.G, mustScored(t, ds, fn.G))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ms, direct) {
			t.Fatalf("%s: engine match table differs from direct", o)
		}
	}
}

// The direct-path oracle reports cancellation instead of scoring nothing.
func TestScoredClustersCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ds := datasets.YNG()
	if sc, err := ScoredClusters(ctx, ds, ds.G); !errors.Is(err, context.Canceled) || sc != nil {
		t.Fatalf("ScoredClusters = %d clusters, %v; want none and context.Canceled", len(sc), err)
	}
}

// A repeated figure run against the warm engine performs zero additional
// stage computes — the cache-regression guard for the figure suite.
func TestFigureRerunsHitWarmCache(t *testing.T) {
	ctx := context.Background()
	if _, err := Fig4(ctx); err != nil {
		t.Fatal(err)
	}
	misses := eng.Stats().Misses
	rows, err := Fig4(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	if after := eng.Stats().Misses; after != misses {
		t.Fatalf("warm Fig4 recomputed %d artifacts", after-misses)
	}
}
