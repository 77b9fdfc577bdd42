package experiments

import (
	"context"
	"errors"
	"testing"

	"parsample/internal/faultinject"
)

func TestCorrelationFrontEnd(t *testing.T) {
	rows, err := CorrelationFrontEnd(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (pearson, spearman)", len(rows))
	}
	byKind := map[string]CorrelationFrontEndRow{}
	for _, r := range rows {
		byKind[r.Kind] = r
		if r.Edges == 0 {
			t.Fatalf("%s network has no edges", r.Kind)
		}
		if r.Genes != 2048 || r.Samples != 64 {
			t.Fatalf("%s matrix shape %dx%d", r.Kind, r.Genes, r.Samples)
		}
	}
	// At noise 0.1 and 64 arrays, Pearson at the paper's thresholds should
	// recover nearly every planted module pair.
	if p := byKind["pearson"]; p.ModuleEdgeRecall < 0.85 {
		t.Fatalf("pearson module recall = %v", p.ModuleEdgeRecall)
	}
	// Spearman loses some power to rank discretization but must still see
	// the bulk of the modules.
	if s := byKind["spearman"]; s.ModuleEdgeRecall < 0.5 {
		t.Fatalf("spearman module recall = %v", s.ModuleEdgeRecall)
	}
}

// TestCorrelationCliff checks the threshold cliff, then arms the sweep's
// tile failpoint: the figure returns the injected error, not empty points.
// faultinject state is process-global — no t.Parallel here.
func TestCorrelationCliff(t *testing.T) {
	pts, err := CorrelationCliff(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Edges > pts[i-1].Edges {
			t.Fatalf("edge count not monotone in threshold: %+v", pts)
		}
	}
	if pts[0].Edges == 0 {
		t.Fatal("loosest threshold kept no edges")
	}

	t.Cleanup(faultinject.Reset)
	faultinject.Enable("expr.sweep.tile", faultinject.Spec{Mode: faultinject.ModeError})
	if pts, err := CorrelationCliff(t.Context()); !errors.Is(err, faultinject.ErrInjected) || pts != nil {
		t.Fatalf("armed sweep: %d points, err = %v; want none and ErrInjected", len(pts), err)
	}
}
