package expr

import (
	"context"
	"errors"
	"strings"
	"testing"

	"parsample/internal/faultinject"
)

// faultMatrix synthesizes a matrix large enough to span several sweep
// tiles, so the tile-claim failpoint is actually reached.
func faultMatrix(t *testing.T) *Matrix {
	t.Helper()
	syn, err := Synthesize(SyntheticSpec{Genes: 192, Samples: 16, Modules: 3, ModuleSize: 10, Noise: 0.3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return syn.M
}

// TestSweepTileFailpointError: an armed expr.sweep.tile error site aborts
// the sweep with the injected error, for a single build and for a
// threshold sweep; disarmed, the same build succeeds.
// faultinject state is process-global — no t.Parallel here.
func TestSweepTileFailpointError(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	m := faultMatrix(t)
	opts := NetworkOptions{MinAbsR: 0.5, MaxP: 0.05}

	faultinject.Enable("expr.sweep.tile", faultinject.Spec{Mode: faultinject.ModeError, Count: 1})
	if _, err := BuildNetworkContext(context.Background(), m, opts); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}

	// Count exhausted: the sweep runs clean.
	g, err := BuildNetworkContext(context.Background(), m, opts)
	if err != nil {
		t.Fatalf("rebuild after exhausted failpoint: %v", err)
	}
	if want := mustBuild(t, m, opts); g.M() != want.M() {
		t.Fatalf("rebuilt network has %d edges, want %d", g.M(), want.M())
	}

	// The threshold sweep runs the same engine: it returns the injected
	// error, not empty or zero-edge points.
	faultinject.Enable("expr.sweep.tile", faultinject.Spec{Mode: faultinject.ModeError, Count: 1})
	if pts, err := ThresholdSweepContext(context.Background(), m, []float64{0.5, 0.8}, opts); !errors.Is(err, faultinject.ErrInjected) || pts != nil {
		t.Fatalf("sweep = %+v, %v; want no points and ErrInjected", pts, err)
	}
}

// TestSweepWorkerPanicContained: a panic at a tile claim must become the
// sweep's error — worker goroutines run under no net/http recover, so an
// escaped panic here would kill a shared daemon.
func TestSweepWorkerPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	m := faultMatrix(t)
	faultinject.Enable("expr.sweep.tile", faultinject.Spec{Mode: faultinject.ModePanic, Count: 1})
	_, err := BuildNetworkContext(context.Background(), m, NetworkOptions{MinAbsR: 0.5, MaxP: 0.05})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a contained panic error", err)
	}
}
