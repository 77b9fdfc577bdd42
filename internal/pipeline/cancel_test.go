package pipeline

import (
	"context"
	"errors"
	"testing"
	"time"

	"parsample/internal/expr"
	"parsample/internal/graph"
	"parsample/internal/sampling"
)

// watchdog runs fn and fails the test if it does not return within limit —
// the "returns promptly" bound of the cancellation contract.
func watchdog(t *testing.T, limit time.Duration, fn func()) time.Duration {
	t.Helper()
	start := time.Now()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
		return time.Since(start)
	case <-time.After(limit):
		t.Fatalf("cancelled request did not return within %v", limit)
		return 0
	}
}

// cancelMidKernel lands a cancellation mid-kernel without hardcoding a
// delay (a fixed sleep races the kernel on fast many-core machines): each
// attempt uses a fresh engine (so a completed attempt's cached artifact
// cannot mask later ones) and a delay scaled down from the measured
// uncancelled duration, shrinking until the attempt observes
// context.Canceled. Returns the engine of the cancelled attempt.
func cancelMidKernel(t *testing.T, cold time.Duration, attempt func(e *Engine, ctx context.Context) error) *Engine {
	t.Helper()
	if cold < time.Millisecond {
		cold = time.Millisecond
	}
	for div := time.Duration(4); div <= 256; div *= 2 {
		e := New(Config{})
		ctx, cancel := context.WithCancel(context.Background())
		timer := time.AfterFunc(cold/div, cancel)
		var err error
		watchdog(t, 4*cold+5*time.Second, func() { err = attempt(e, ctx) })
		timer.Stop()
		cancel()
		if errors.Is(err, context.Canceled) {
			return e
		}
		if err != nil {
			t.Fatalf("attempt failed with %v, want nil or context.Canceled", err)
		}
		// The kernel outran this delay; retry with a shorter one.
	}
	t.Fatal("could not land a cancellation mid-kernel")
	return nil
}

// bigMatrix is large enough that a full correlation build takes well over
// the cancellation delay on any machine (4096 genes ≈ 8.4M pair dots).
func bigMatrix(t *testing.T) *expr.Matrix {
	t.Helper()
	syn, err := expr.Synthesize(expr.SyntheticSpec{
		Genes: 4096, Samples: 100, Modules: 16, ModuleSize: 12, Noise: 0.1, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	return syn.M
}

// Cancelling mid-BuildNetworkContext returns promptly with ctx.Err(), leaves the
// store without a poisoned entry, and a later request with a live context
// computes the artifact from scratch.
func TestCancelMidBuildNetwork(t *testing.T) {
	in := Input{Name: "big", Load: loadMatrix(bigMatrix(t)), Net: expr.DefaultNetworkOptions()}

	start := time.Now()
	if _, err := New(Config{}).Network(context.Background(), in); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)

	e := cancelMidKernel(t, cold, func(e *Engine, ctx context.Context) error {
		_, err := e.Network(ctx, in)
		return err
	})
	if st := e.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled build left %d entries in the store", st.Entries)
	}

	g, err := e.Network(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	if g.M() == 0 {
		t.Fatal("recomputed network is empty")
	}
	if st := e.Stats(); st.Entries != 1 || st.Misses != 2 {
		t.Fatalf("stats after recovery = %+v, want 1 entry / 2 misses", st)
	}
}

// Cancelling mid-FindClustersContext (the MCODE vertex-weight pass on a dense
// generator graph) returns promptly with ctx.Err() and does not poison the
// store.
func TestCancelMidFindClusters(t *testing.T) {
	in := Input{Name: "er", G: graph.Gnm(8192, 131072, 4)}

	start := time.Now()
	if _, err := New(Config{}).Clusters(context.Background(), in, Original); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)

	e := cancelMidKernel(t, cold, func(e *Engine, ctx context.Context) error {
		_, err := e.Clusters(ctx, in, Original)
		return err
	})
	if st := e.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled clustering left %d entries in the store", st.Entries)
	}

	cs, err := e.Clusters(context.Background(), in, Original)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs) == 0 {
		t.Fatal("recomputed clustering found nothing on a dense ER graph")
	}
}

// Cancelling a parallel sampling run aborts every simulated rank — compute
// loops, receives and collectives — without goroutine leaks (checked by
// TestMain) and without caching a partial result.
func TestCancelMidParallelFilter(t *testing.T) {
	in := Input{Name: "gnm", G: graph.Gnm(16384, 262144, 5), OrderSeed: 5, FilterSeed: 5}
	v := Variant{Ordering: graph.Natural, Algorithm: sampling.ChordalComm, P: 8}

	start := time.Now()
	if _, err := New(Config{}).Filtered(context.Background(), in, v); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)

	e := cancelMidKernel(t, cold, func(e *Engine, ctx context.Context) error {
		_, err := e.Filtered(ctx, in, v)
		return err
	})
	// The order dependency may have finished before the cancellation landed;
	// the filter artifact itself must not be resident.
	if e.store.Contains(in.key(StageFilter, v)) {
		t.Fatal("cancelled filter left its artifact in the store")
	}
}

// An already-cancelled context fails fast at the slot gate without running
// any kernel.
func TestCancelledBeforeStart(t *testing.T) {
	e := New(Config{})
	in := Input{Name: "big2", Load: loadMatrix(bigMatrix(t)), Net: expr.DefaultNetworkOptions()}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	elapsed := watchdog(t, time.Second, func() {
		if _, err := e.Network(ctx, in); !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want context.Canceled", err)
		}
	})
	if elapsed > 500*time.Millisecond {
		t.Fatalf("pre-cancelled request took %v", elapsed)
	}
}
