package pipeline

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"parsample/internal/expr"
	"parsample/internal/graph"
)

// networkMatrix synthesizes the shared expression matrix for the network
// stage tests: modular, so loose thresholds admit real edge sets, and
// large enough to span several sweep tiles.
func networkMatrix(t *testing.T) *expr.Matrix {
	t.Helper()
	syn, err := expr.Synthesize(expr.SyntheticSpec{
		Genes: 256, Samples: 20, Modules: 4, ModuleSize: 12, Noise: 0.3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return syn.M
}

// mustBuild is the direct expr.BuildNetworkContext build the network stage
// is compared against; it fails the test on an error.
func mustBuild(t *testing.T, m *expr.Matrix, opts expr.NetworkOptions) *graph.Graph {
	t.Helper()
	g, err := expr.BuildNetworkContext(t.Context(), m, opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func matrixInput(m *expr.Matrix, opts expr.NetworkOptions) Input {
	return Input{Name: "network-test", Load: loadMatrix(m), Net: opts}
}

// loadMatrix is the loader of an input whose source is the matrix m.
func loadMatrix(m *expr.Matrix) func() (Data, error) {
	return func() (Data, error) { return Data{Matrix: m}, nil }
}

// TestSweepBatcherCoalescesConcurrentSweeps (the name predates the
// network stage's plain sweep): N concurrent network builds over one
// matrix with different admission parameters, statistics and precisions,
// on a Workers=1 engine, each receive exactly the network a direct build
// produces, and each is one counted sweep — the one worker slot
// serializes them without deadlock.
func TestSweepBatcherCoalescesConcurrentSweeps(t *testing.T) {
	m := networkMatrix(t)
	e := New(Config{Workers: 1})
	optsFor := func(i int) expr.NetworkOptions {
		o := expr.NetworkOptions{
			MinAbsR:  0.3 + 0.1*float64(i),
			MaxP:     0.05,
			Negative: i%2 == 1,
		}
		if i == 2 {
			o.Kind = expr.SpearmanCorr
		}
		if i == 3 {
			o.Precision = expr.Float32
		}
		return o
	}
	const n = 4
	got := make([]*graph.Graph, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = e.Network(context.Background(), matrixInput(m, optsFor(i)))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want := mustBuild(t, m, optsFor(i))
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("request %d: engine network differs from direct build (%d vs %d edges)", i, got[i].M(), want.M())
		}
	}
	if st := e.Stats(); st.SweepRequests != n {
		t.Errorf("SweepRequests = %d, want %d", st.SweepRequests, n)
	}
}

// TestSweepBatcherDisabledCountsDirectBuilds (the name predates the
// network stage's plain sweep): every build is its own counted sweep, and
// its network equals a direct build.
func TestSweepBatcherDisabledCountsDirectBuilds(t *testing.T) {
	m := networkMatrix(t)
	e := New(Config{})
	ctx := context.Background()
	for _, minR := range []float64{0.5, 0.7} {
		in := matrixInput(m, expr.NetworkOptions{MinAbsR: minR, MaxP: 0.05})
		g, err := e.Network(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		want := mustBuild(t, m, in.Net)
		if !reflect.DeepEqual(g, want) {
			t.Errorf("minAbsR=%v: engine network differs from direct build", minR)
		}
	}
	st := e.Stats()
	if st.SweepBatches != 2 || st.SweepRequests != 2 {
		t.Errorf("stats = %d batches / %d requests, want 2/2", st.SweepBatches, st.SweepRequests)
	}
}
