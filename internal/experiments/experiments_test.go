package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"parsample/internal/datasets"
	"parsample/internal/graph"
	"parsample/internal/sampling"
)

func TestFilterPipeline(t *testing.T) {
	ds := datasets.YNG()
	fn, err := Filter(ds, graph.HighDegree, sampling.ChordalSeq, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fn.G.M() >= ds.G.M() {
		t.Fatalf("filter did not remove edges: %d vs %d", fn.G.M(), ds.G.M())
	}
	if fn.G.M() == 0 {
		t.Fatal("filter removed everything")
	}
}

func TestFig4ShapesH0b(t *testing.T) {
	rows, err := Fig4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no Fig4 rows")
	}
	// Both networks, ORIG plus every ordering, must contribute clusters:
	// the paper's H0b — biologically relevant clusters are identified
	// consistently across orderings.
	seen := map[string]int{}
	for _, r := range rows {
		seen[r.Network+"/"+r.Variant]++
		if r.AEES < -20 || r.AEES > 20 {
			t.Fatalf("absurd AEES %v", r.AEES)
		}
	}
	for _, net := range []string{"YNG", "MID"} {
		for _, v := range []string{"ORIG", "NO", "HD", "LD", "RCM"} {
			if seen[net+"/"+v] < 2 {
				t.Fatalf("%s/%s: only %d clusters (H0b violated)", net, v, seen[net+"/"+v])
			}
		}
	}
	var buf bytes.Buffer
	WriteFig4(&buf, rows)
	if !strings.Contains(buf.String(), "AEES") {
		t.Fatal("table rendering broken")
	}
}

func TestFig5OverlapShapes(t *testing.T) {
	pts, err := Fig5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) == 0 {
		t.Fatal("no Fig5 points")
	}
	nets := map[string]bool{}
	fullOverlap := 0
	newClusters := 0
	for _, p := range pts {
		nets[p.Network] = true
		if p.NodeOv < 0 || p.NodeOv > 1 || p.EdgeOv < 0 || p.EdgeOv > 1 {
			t.Fatalf("overlap out of range: %+v", p)
		}
		if p.NodeOv >= 0.999 {
			fullOverlap++
		}
		if p.New {
			newClusters++
		}
	}
	if !nets["UNT"] || !nets["CRE"] {
		t.Fatalf("networks covered: %v", nets)
	}
	// Paper: "we still found some filters to leave complete clusters
	// (100% edge and node overlap) from the original".
	if fullOverlap == 0 {
		t.Fatal("no fully retained clusters")
	}
	var buf bytes.Buffer
	WriteOverlapPoints(&buf, pts)
	if buf.Len() == 0 {
		t.Fatal("render empty")
	}
}

func TestFig6Fig7AllNetworksNoNew(t *testing.T) {
	pts, err := Fig6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	nets := map[string]bool{}
	for _, p := range pts {
		if p.New {
			t.Fatal("Fig6 must exclude lost/found clusters")
		}
		nets[p.Network] = true
	}
	for _, n := range []string{"YNG", "MID", "UNT", "CRE"} {
		if !nets[n] {
			t.Fatalf("network %s missing from Fig6", n)
		}
	}
}

func TestFig8SensitivitySpecificity(t *testing.T) {
	rows, err := Fig8(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Kind != "node" || rows[1].Kind != "edge" {
		t.Fatalf("rows = %+v", rows)
	}
	node, edge := rows[0], rows[1]
	total := node.Counts.TP + node.Counts.FP + node.Counts.FN + node.Counts.TN
	if total == 0 {
		t.Fatal("no classified clusters")
	}
	for _, r := range rows {
		if r.Sensitivity < 0 || r.Sensitivity > 1 || r.Specificity < 0 || r.Specificity > 1 {
			t.Fatalf("rates out of range: %+v", r)
		}
	}
	// Paper (Fig 8): node overlap gives high sensitivity / lower specificity;
	// edge overlap the opposite (edge overlap is depressed by edge removal,
	// so fewer matches clear the 50% bar).
	if node.Sensitivity < edge.Sensitivity {
		t.Fatalf("node sensitivity %.2f < edge sensitivity %.2f (paper shape violated)",
			node.Sensitivity, edge.Sensitivity)
	}
	if edge.Specificity < node.Specificity {
		t.Fatalf("edge specificity %.2f < node specificity %.2f (paper shape violated)",
			edge.Specificity, node.Specificity)
	}
	var buf bytes.Buffer
	WriteFig8(&buf, rows)
	if !strings.Contains(buf.String(), "sensitivity") {
		t.Fatal("render broken")
	}
}

func TestFig9CaseStudyImprovement(t *testing.T) {
	r, err := Fig9(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's case study: filtering improves the cluster's AEES
	// (2.33 -> 4.17). Our best-improved pair must improve.
	if r.FilteredAEES <= r.OriginalAEES {
		t.Fatalf("no AEES improvement: %.2f -> %.2f", r.OriginalAEES, r.FilteredAEES)
	}
	if r.NodeOv <= 0 {
		t.Fatal("case study pair must overlap")
	}
	var buf bytes.Buffer
	WriteFig9(&buf, r)
	if !strings.Contains(buf.String(), "case study") {
		t.Fatal("render broken")
	}
}

func TestFig10ScalabilityShape(t *testing.T) {
	rows, err := Fig10(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	get := func(net, alg string, p int) ScalingRow {
		for _, r := range rows {
			if r.Network == net && r.Algorithm == alg && r.P == p {
				return r
			}
		}
		t.Fatalf("missing row %s/%s/%d", net, alg, p)
		return ScalingRow{}
	}
	for _, net := range []string{"YNG", "CRE"} {
		for _, p := range Fig10Processors {
			comm := get(net, "chordal-comm", p)
			nocomm := get(net, "chordal-nocomm", p)
			rw := get(net, "randomwalk-par", p)
			// Random walk is the fastest filter (within accounting noise at
			// the high-P tail where both are sub-millisecond); chordal
			// without communication beats chordal with communication (P>1).
			if rw.ModeledSeconds > 1.3*nocomm.ModeledSeconds {
				t.Fatalf("%s P=%d: random walk (%.4f) slower than nocomm (%.4f)",
					net, p, rw.ModeledSeconds, nocomm.ModeledSeconds)
			}
			if p > 1 && rw.ModeledSeconds > comm.ModeledSeconds {
				t.Fatalf("%s P=%d: random walk (%.4f) slower than comm (%.4f)",
					net, p, rw.ModeledSeconds, comm.ModeledSeconds)
			}
			if p > 1 && nocomm.ModeledSeconds > comm.ModeledSeconds {
				t.Fatalf("%s P=%d: nocomm (%.4f) slower than comm (%.4f)",
					net, p, nocomm.ModeledSeconds, comm.ModeledSeconds)
			}
			// Communication-free variants must send zero messages.
			if nocomm.Messages != 0 || rw.Messages != 0 {
				t.Fatalf("%s P=%d: comm-free algorithms sent messages", net, p)
			}
			if p > 1 && comm.Messages == 0 {
				t.Fatalf("%s P=%d: comm variant sent no messages", net, p)
			}
		}
		// Comm-free chordal scales: 64P at least 5x faster than 1P.
		if get(net, "chordal-nocomm", 64).ModeledSeconds*5 > get(net, "chordal-nocomm", 1).ModeledSeconds {
			t.Fatalf("%s: nocomm does not scale", net)
		}
	}
	// The paper's headline: for the small network the comm version's curve
	// rises sharply at 32 processors.
	y32 := get("YNG", "chordal-comm", 32).ModeledSeconds
	y8 := get("YNG", "chordal-comm", 8).ModeledSeconds
	y64 := get("YNG", "chordal-comm", 64).ModeledSeconds
	if y32 <= y8 || y64 <= y32 {
		t.Fatalf("YNG comm curve does not rise sharply: P8=%.4f P32=%.4f P64=%.4f", y8, y32, y64)
	}
	// Large network: comm version costs roughly 2x the comm-free version at
	// small P (paper: "about two times as much in the case of two
	// processors").
	c2 := get("CRE", "chordal-comm", 2).ModeledSeconds
	n2 := get("CRE", "chordal-nocomm", 2).ModeledSeconds
	if c2 < 1.3*n2 || c2 > 5*n2 {
		t.Fatalf("CRE P=2: comm/nocomm ratio %.2f out of the paper's regime", c2/n2)
	}
	var buf bytes.Buffer
	WriteFig10(&buf, rows)
	if !strings.Contains(buf.String(), "modeled_s") {
		t.Fatal("render broken")
	}
}

func TestFig11ParallelQualityH0c(t *testing.T) {
	overlaps, tops, err := Fig11(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byP := map[int]int{}
	for _, r := range overlaps {
		byP[r.P]++
	}
	if byP[1] == 0 || byP[64] == 0 {
		t.Fatalf("overlap rows per P: %v", byP)
	}
	bySrc := map[string]int{}
	for _, r := range tops {
		bySrc[r.Source]++
		if r.AEES <= 3.0 {
			t.Fatalf("top table contains AEES ≤ 3: %+v", r)
		}
	}
	// H0c: the 64P filter still identifies high-AEES clusters, comparably
	// to 1P and the original.
	if bySrc["ORIG"] == 0 || bySrc["1P"] == 0 || bySrc["64P"] == 0 {
		t.Fatalf("top clusters per source: %v", bySrc)
	}
	if bySrc["64P"]*2 < bySrc["1P"] {
		t.Fatalf("64P found far fewer top clusters (%d) than 1P (%d)", bySrc["64P"], bySrc["1P"])
	}
	var buf bytes.Buffer
	WriteFig11(&buf, overlaps, tops)
	if !strings.Contains(buf.String(), "AEES > 3.0") {
		t.Fatal("render broken")
	}
}

func TestRandomWalkFindsAlmostNoClustersH0a(t *testing.T) {
	rows, err := RandomWalkClusters(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Paper: the random-walk filter finds no clusters at all. Synthetic
		// data leaves an occasional surviving K4 core; "essentially none"
		// is the reproduced shape (documented in EXPERIMENTS.md).
		if r.ClusterCount > 5 {
			t.Fatalf("%s: random walk found %d clusters", r.Network, r.ClusterCount)
		}
		if r.EdgesKept >= r.EdgesOrig/2 {
			t.Fatalf("%s: random walk kept %d of %d edges", r.Network, r.EdgesKept, r.EdgesOrig)
		}
	}
	// The chordal filter must find far more clusters than the control on
	// the same networks (H0a).
	for _, ds := range datasets.All() {
		chordalN, _, err := filteredClusters(context.Background(), ds, graph.Natural, sampling.ChordalSeq, 1)
		if err != nil {
			t.Fatal(err)
		}
		var rwN int
		for _, r := range rows {
			if r.Network == ds.Name {
				rwN = r.ClusterCount
			}
		}
		if len(chordalN) < 3*rwN || len(chordalN) < 3 {
			t.Fatalf("%s: chordal=%d vs random walk=%d clusters", ds.Name, len(chordalN), rwN)
		}
	}
	var buf bytes.Buffer
	WriteRandomWalk(&buf, rows)
	if !strings.Contains(buf.String(), "clusters") {
		t.Fatal("render broken")
	}
}

func TestHeaderRendering(t *testing.T) {
	var buf bytes.Buffer
	Header(&buf, "Fig X")
	if !strings.Contains(buf.String(), "== Fig X ==") {
		t.Fatal("header broken")
	}
}
