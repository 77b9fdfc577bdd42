package pipeline

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"parsample/internal/expr"
	"parsample/internal/faultinject"
)

// The failpoint tests exercise DESIGN.md §8's failure discipline on the
// two failures hardest to reach organically: a store put that fails after
// a successful compute, and a network-stage sweep that errors or panics
// mid-kernel. Goroutine hygiene is enforced package-wide by TestMain
// (store_test.go): a strand leaked by any of these paths fails the run.
// faultinject state is process-global, so none of these tests may use
// t.Parallel.

// TestStorePutFailpoint: a put failure after a successful compute must
// reach the owner AND every waiter of that flight, leave nothing resident
// (no poisoned artifact), and the next request must recompute from
// scratch and cache normally.
func TestStorePutFailpoint(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := NewStore(0)
	key := Key{Input: "fi-put", Stage: StageNetwork}

	computes := 0
	release := make(chan struct{})
	started := make(chan struct{})
	blocking := func(ctx context.Context) (any, int64, error) {
		computes++
		close(started)
		<-release
		return "artifact", 8, nil
	}
	poison := func(ctx context.Context) (any, int64, error) {
		t.Error("waiter's compute ran despite an in-flight owner")
		return nil, 0, nil
	}

	faultinject.Enable("pipeline.store.put", faultinject.Spec{Mode: faultinject.ModeError, Count: 1})

	const waiters = 4
	errs := make([]error, waiters)
	srcs := make([]Source, waiters)
	var wg sync.WaitGroup
	ownerErr := make(chan error, 1)
	go func() {
		_, _, err := s.Do(context.Background(), key, blocking)
		ownerErr <- err
	}()
	<-started
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, srcs[i], errs[i] = s.Do(context.Background(), key, poison)
		}(i)
	}
	// Wait until every waiter has joined the owner's flight, then let the
	// compute finish (and the put failpoint fire).
	for deadline := time.Now().Add(5 * time.Second); ; {
		if s.Stats().Shared >= waiters {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiters never joined the in-flight computation")
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	if err := <-ownerErr; !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("owner error = %v, want ErrInjected", err)
	}
	for i := 0; i < waiters; i++ {
		if !errors.Is(errs[i], faultinject.ErrInjected) {
			t.Errorf("waiter %d error = %v, want ErrInjected (a put failure is the artifact's own error, shared with every waiter)", i, errs[i])
		}
		if srcs[i] != Shared {
			t.Errorf("waiter %d source = %v, want Shared", i, srcs[i])
		}
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("store holds %d entries after a failed put, want 0 (nothing may be inserted)", n)
	}

	// The failpoint's Count is exhausted: the next request recomputes and
	// caches normally — the key is not poisoned.
	val, src, err := s.Do(context.Background(), key, func(ctx context.Context) (any, int64, error) {
		computes++
		return "artifact", 8, nil
	})
	if err != nil || val != "artifact" || src != Computed {
		t.Fatalf("recompute after failed put = (%v, %v, %v), want (artifact, Computed, nil)", val, src, err)
	}
	if computes != 2 {
		t.Fatalf("compute ran %d times, want 2 (once per attempt, never for waiters)", computes)
	}
	if _, src, _ := s.Do(context.Background(), key, poison); src != Hit {
		t.Fatalf("third request source = %v, want Hit", src)
	}
}

// TestStoreGetFailpoint: an armed get site fails the request before any
// compute or store mutation.
func TestStoreGetFailpoint(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s := NewStore(0)
	key := Key{Input: "fi-get", Stage: StageNetwork}
	faultinject.Enable("pipeline.store.get", faultinject.Spec{Mode: faultinject.ModeError, Count: 1})
	_, _, err := s.Do(context.Background(), key, func(ctx context.Context) (any, int64, error) {
		t.Error("compute ran despite an armed get failpoint")
		return nil, 0, nil
	})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("store holds %d entries, want 0", n)
	}
	if _, src, err := s.Do(context.Background(), key, func(ctx context.Context) (any, int64, error) {
		return 1, 1, nil
	}); err != nil || src != Computed {
		t.Fatalf("request after exhausted failpoint = (%v, %v), want (Computed, nil)", src, err)
	}
}

// TestStoreComputePanicContained: a panicking compute becomes an error for
// the owner (and by the put-failure discipline, leaves the store clean);
// the daemon-level invariant is that no artifact kernel panic can escape
// Store.Do.
func TestStoreComputePanicContained(t *testing.T) {
	s := NewStore(0)
	key := Key{Input: "fi-panic", Stage: StageCluster}
	_, _, err := s.Do(context.Background(), key, func(ctx context.Context) (any, int64, error) {
		panic("kernel bug")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") || !strings.Contains(err.Error(), "kernel bug") {
		t.Fatalf("err = %v, want a contained panic error", err)
	}
	if strings.Contains(err.Error(), "goroutine ") {
		t.Fatalf("contained panic error carries a goroutine stack: %q", err)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("store holds %d entries after a panicked compute, want 0", n)
	}
	if _, src, err := s.Do(context.Background(), key, func(ctx context.Context) (any, int64, error) {
		return "ok", 2, nil
	}); err != nil || src != Computed {
		t.Fatalf("recompute after panic = (%v, %v), want (Computed, nil)", src, err)
	}
}

// TestBatcherLeaderNonRetriableErrorPropagates (the name predates the
// network stage's plain sweep): an error injected at a sweep tile claim
// reaches the Network caller verbatim and is not cached; the next build
// recomputes cleanly and equals a direct build.
func TestBatcherLeaderNonRetriableErrorPropagates(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	m := networkMatrix(t)
	e := New(Config{Workers: 1})
	opts := expr.NetworkOptions{MinAbsR: 0.5, MaxP: 0.05}
	faultinject.Enable("expr.sweep.tile", faultinject.Spec{Mode: faultinject.ModeError, Count: 1})

	_, err := e.Network(context.Background(), matrixInput(m, opts))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	// The failure was not cached; the next build recomputes cleanly.
	g, err := e.Network(context.Background(), matrixInput(m, opts))
	if err != nil {
		t.Fatalf("rebuild after injected sweep error: %v", err)
	}
	if want := expr.BuildNetwork(m, opts); !reflect.DeepEqual(g, want) {
		t.Error("rebuilt network differs from direct build")
	}
}

// TestBatcherLeaderPanicContained (the name predates the network stage's
// plain sweep): a panic at a sweep tile claim comes back to the Network
// caller as a contained error, strands no goroutine (TestMain enforces
// that), and the next build succeeds.
func TestBatcherLeaderPanicContained(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	m := networkMatrix(t)
	e := New(Config{Workers: 1})
	opts := expr.NetworkOptions{MinAbsR: 0.6, MaxP: 0.05}
	faultinject.Enable("expr.sweep.tile", faultinject.Spec{Mode: faultinject.ModePanic, Count: 1})

	_, err := e.Network(context.Background(), matrixInput(m, opts))
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want a contained panic error", err)
	}
	if _, err := e.Network(context.Background(), matrixInput(m, opts)); err != nil {
		t.Fatalf("rebuild after contained panic: %v", err)
	}
}
