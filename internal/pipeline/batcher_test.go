package pipeline

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"parsample/internal/expr"
	"parsample/internal/graph"
)

// batcherMatrix synthesizes the shared expression matrix for the batcher
// tests: modular, so loose thresholds admit real edge sets.
func batcherMatrix(t *testing.T) *expr.Matrix {
	t.Helper()
	syn, err := expr.Synthesize(expr.SyntheticSpec{
		Genes: 256, Samples: 20, Modules: 4, ModuleSize: 12, Noise: 0.3, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return syn.M
}

func batcherInput(m *expr.Matrix, opts expr.NetworkOptions) Input {
	return Input{Name: "batch-test", Matrix: m, Net: opts}
}

// TestSweepBatcherCoalescesConcurrentSweeps: N concurrent network builds
// over one matrix with different admission parameters must ride ONE
// batched kernel invocation — on a Workers=1 engine, which also proves a
// follower never holds the only worker slot while waiting on its leader —
// and each must receive exactly the network an unbatched build produces.
func TestSweepBatcherCoalescesConcurrentSweeps(t *testing.T) {
	m := batcherMatrix(t)
	e := New(Config{Workers: 1, BatchWindow: 300 * time.Millisecond})
	optsFor := func(i int) expr.NetworkOptions {
		return expr.NetworkOptions{
			MinAbsR:  0.3 + 0.1*float64(i),
			MaxP:     0.05,
			Negative: i%2 == 1,
		}
	}
	const n = 4
	got := make([]*graph.Graph, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = e.Network(context.Background(), batcherInput(m, optsFor(i)))
		}(i)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want := expr.BuildNetwork(m, optsFor(i))
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("request %d: batched network differs from direct build (%d vs %d edges)", i, got[i].M(), want.M())
		}
	}
	st := e.Stats()
	if st.SweepBatches != 1 {
		t.Errorf("SweepBatches = %d, want 1 (all requests coalesced)", st.SweepBatches)
	}
	if st.SweepRequests != n {
		t.Errorf("SweepRequests = %d, want %d", st.SweepRequests, n)
	}
}

// TestSweepBatcherDisabledCountsDirectBuilds: with no window every build
// is its own kernel invocation, and results are unchanged.
func TestSweepBatcherDisabledCountsDirectBuilds(t *testing.T) {
	m := batcherMatrix(t)
	e := New(Config{})
	ctx := context.Background()
	for _, minR := range []float64{0.5, 0.7} {
		in := batcherInput(m, expr.NetworkOptions{MinAbsR: minR, MaxP: 0.05})
		g, err := e.Network(ctx, in)
		if err != nil {
			t.Fatal(err)
		}
		want := expr.BuildNetwork(m, in.Net)
		if !reflect.DeepEqual(g, want) {
			t.Errorf("minAbsR=%v: engine network differs from direct build", minR)
		}
	}
	st := e.Stats()
	if st.SweepBatches != 2 || st.SweepRequests != 2 {
		t.Errorf("stats = %d batches / %d requests, want 2/2", st.SweepBatches, st.SweepRequests)
	}
}

// TestSweepBatcherFollowerSurvivesLeaderCancel: a follower whose leader is
// cancelled mid-window retries under its own context and still gets its
// network — the Store.Do waiter semantics, carried over to batches.
func TestSweepBatcherFollowerSurvivesLeaderCancel(t *testing.T) {
	m := batcherMatrix(t)
	e := New(Config{Workers: 1, BatchWindow: 2 * time.Second})
	leadCtx, cancelLead := context.WithCancel(context.Background())

	leadOpts := expr.NetworkOptions{MinAbsR: 0.5, MaxP: 0.05}
	leadErr := make(chan error, 1)
	go func() {
		_, err := e.Network(leadCtx, batcherInput(m, leadOpts))
		leadErr <- err
	}()
	time.Sleep(100 * time.Millisecond) // leader is now holding its batch open

	followOpts := expr.NetworkOptions{MinAbsR: 0.7, MaxP: 0.05}
	followG := make(chan *graph.Graph, 1)
	followErrCh := make(chan error, 1)
	go func() {
		g, err := e.Network(context.Background(), batcherInput(m, followOpts))
		followG <- g
		followErrCh <- err
	}()
	time.Sleep(100 * time.Millisecond) // follower has joined the batch
	cancelLead()

	if err := <-leadErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled leader returned %v, want context.Canceled", err)
	}
	// The follower's retry forms a new batch with its own 2s window; give
	// it room.
	select {
	case g := <-followG:
		if err := <-followErrCh; err != nil {
			t.Fatalf("follower failed after leader cancel: %v", err)
		}
		want := expr.BuildNetwork(m, followOpts)
		if !reflect.DeepEqual(g, want) {
			t.Error("follower's retried network differs from direct build")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("follower deadlocked after leader cancellation")
	}
}

// TestSweepBatcherKeySeparation: same data name but a different statistic
// must not share a batch (they cannot share a kernel pass), while a
// different Precision must (it is ignored by the engine); every request
// still gets the graph of a direct build.
func TestSweepBatcherKeySeparation(t *testing.T) {
	m := batcherMatrix(t)
	e := New(Config{Workers: 2, BatchWindow: 300 * time.Millisecond})
	opts := []expr.NetworkOptions{
		{Kind: expr.PearsonCorr, MinAbsR: 0.5, MaxP: 0.05},
		{Kind: expr.SpearmanCorr, MinAbsR: 0.5, MaxP: 0.05},
		{Kind: expr.PearsonCorr, MinAbsR: 0.6, MaxP: 0.05, Precision: expr.Float32},
	}
	got := make([]*graph.Graph, len(opts))
	errs := make([]error, len(opts))
	var wg sync.WaitGroup
	for i, o := range opts {
		wg.Add(1)
		go func(i int, o expr.NetworkOptions) {
			defer wg.Done()
			got[i], errs[i] = e.Network(context.Background(), batcherInput(m, o))
		}(i, o)
	}
	wg.Wait()
	for i, o := range opts {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		want := expr.BuildNetwork(m, o)
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("request %d: network differs from direct build", i)
		}
	}
	if st := e.Stats(); st.SweepBatches != 2 || st.SweepRequests != 3 {
		t.Errorf("stats = %d batches / %d requests, want 2/3 (kinds cannot share a batch, precisions can)", st.SweepBatches, st.SweepRequests)
	}
}
