package pipeline

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain asserts the package leaks no goroutines: cancelled engine
// requests must unwind every kernel worker and mpisim rank they started.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "pipeline: %d goroutines leaked (baseline %d):\n%s\n", n-base, base, buf)
			code = 1
		}
	}
	os.Exit(code)
}

func testKey(i int) Key {
	return Key{Input: fmt.Sprintf("k%d", i), Stage: StageCluster, Variant: Original}
}

// TestStoreSingleflight is the clusterCache check-then-act regression test:
// 16 goroutines hammer one key concurrently and exactly one compute runs
// (the seed's sync.Map cache computed once per goroutine that missed). Run
// under -race in CI.
func TestStoreSingleflight(t *testing.T) {
	s := NewStore(1 << 20)
	var computes atomic.Int64
	var wg sync.WaitGroup
	start := make(chan struct{})
	results := make([]any, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			v, _, err := s.Do(context.Background(), testKey(0), func(context.Context) (any, int64, error) {
				computes.Add(1)
				time.Sleep(20 * time.Millisecond) // hold the flight open so everyone piles on
				return "artifact", 8, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = v
		}(i)
	}
	close(start)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times, want exactly 1", n)
	}
	for i, v := range results {
		if v != "artifact" {
			t.Fatalf("goroutine %d got %v", i, v)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Shared+st.Hits != 15 {
		t.Fatalf("stats = %+v, want 1 miss and 15 shared/hits", st)
	}
}

// The LRU byte budget evicts the least recently used entry, never the one
// just inserted, and counts evictions.
func TestStoreLRUEviction(t *testing.T) {
	s := NewStore(100)
	add := func(i int) {
		if _, _, err := s.Do(context.Background(), testKey(i), func(context.Context) (any, int64, error) {
			return i, 40, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	add(0)
	add(1)
	// Touch key 0 so key 1 becomes the LRU victim.
	mustNotCompute := func(context.Context) (any, int64, error) {
		return nil, 0, errors.New("unexpected compute")
	}
	if _, src, err := s.Do(context.Background(), testKey(0), mustNotCompute); src != Hit || err != nil {
		t.Fatalf("key 0 not resident: src=%v err=%v", src, err)
	}
	add(2) // 120 bytes > 100: evicts key 1
	if !s.Contains(testKey(0)) || s.Contains(testKey(1)) || !s.Contains(testKey(2)) {
		t.Fatalf("eviction picked the wrong victim: have0=%v have1=%v have2=%v",
			s.Contains(testKey(0)), s.Contains(testKey(1)), s.Contains(testKey(2)))
	}
	st := s.Stats()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	if st.BytesUsed != 80 {
		t.Fatalf("bytes used = %d, want 80", st.BytesUsed)
	}
}

// Oversized policy: an artifact larger than the whole byte budget is served
// to its caller but never retained — holding it would evict the entire
// working set for one request — and the resident set is untouched.
func TestStoreOversizedServedNotRetained(t *testing.T) {
	s := NewStore(100)
	add := func(i int, bytes int64) (any, Source) {
		v, src, err := s.Do(context.Background(), testKey(i), func(context.Context) (any, int64, error) {
			return i, bytes, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return v, src
	}
	add(0, 40)
	add(1, 40)
	v, src := add(3, 500) // oversized: > the whole 100-byte budget
	if v != 3 || src != Computed {
		t.Fatalf("oversized artifact not served: v=%v src=%v", v, src)
	}
	if s.Contains(testKey(3)) {
		t.Fatal("oversized artifact was retained")
	}
	if !s.Contains(testKey(0)) || !s.Contains(testKey(1)) {
		t.Fatal("oversized artifact evicted the resident working set")
	}
	st := s.Stats()
	if st.Oversized != 1 {
		t.Fatalf("oversized = %d, want 1", st.Oversized)
	}
	if st.Evictions != 0 {
		t.Fatalf("evictions = %d, want 0", st.Evictions)
	}
	// A resident key replaced by an oversized value (possible when two
	// waiters of a cancelled owner recompute) drops the stale resident
	// entry rather than serving it forever.
	s.mu.Lock()
	s.insert(testKey(0), 0, 500, false)
	s.mu.Unlock()
	if s.Contains(testKey(0)) {
		t.Fatal("stale resident entry kept after oversized replacement")
	}
}

// A failed compute leaves no entry behind, and the next request recomputes.
func TestStoreErrorNotCached(t *testing.T) {
	s := NewStore(1 << 20)
	boom := errors.New("boom")
	var calls int
	compute := func(context.Context) (any, int64, error) {
		calls++
		if calls == 1 {
			return nil, 0, boom
		}
		return "ok", 2, nil
	}
	if _, _, err := s.Do(context.Background(), testKey(0), compute); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if s.Contains(testKey(0)) {
		t.Fatal("failed compute was cached")
	}
	v, src, err := s.Do(context.Background(), testKey(0), compute)
	if err != nil || v != "ok" || src != Computed {
		t.Fatalf("recompute = (%v, %v, %v)", v, src, err)
	}
}

// A waiter that joined a computation whose owner was cancelled retries with
// its own (live) context instead of inheriting the owner's cancellation.
func TestStoreWaiterSurvivesOwnerCancellation(t *testing.T) {
	s := NewStore(1 << 20)
	ownerCtx, cancelOwner := context.WithCancel(context.Background())
	ownerStarted := make(chan struct{})
	var computes atomic.Int64

	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, _, err := s.Do(ownerCtx, testKey(0), func(ctx context.Context) (any, int64, error) {
			computes.Add(1)
			close(ownerStarted)
			<-ctx.Done() // simulate a kernel observing cancellation
			return nil, 0, ctx.Err()
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("owner err = %v", err)
		}
	}()
	waiterResult := make(chan error, 1)
	go func() {
		defer wg.Done()
		<-ownerStarted
		v, _, err := s.Do(context.Background(), testKey(0), func(ctx context.Context) (any, int64, error) {
			computes.Add(1)
			return "recovered", 4, nil
		})
		if err == nil && v != "recovered" {
			err = fmt.Errorf("v = %v", v)
		}
		waiterResult <- err
	}()

	// Give the waiter a moment to join the owner's flight, then cancel.
	time.Sleep(30 * time.Millisecond)
	cancelOwner()
	wg.Wait()
	if err := <-waiterResult; err != nil {
		t.Fatalf("waiter failed: %v", err)
	}
	if n := computes.Load(); n != 2 {
		t.Fatalf("computes = %d, want 2 (owner cancelled + waiter retried)", n)
	}
	if !s.Contains(testKey(0)) {
		t.Fatal("waiter's successful recompute not cached")
	}
}

// A waiter on a live flight returns its own ctx.Err() once its context
// ends, without computing and without disturbing the owner, whose result
// is then cached.
func TestStoreWaiterHonorsOwnContext(t *testing.T) {
	s := NewStore(1 << 20)
	started, release := make(chan struct{}), make(chan struct{})
	owner := make(chan error, 1)
	go func() {
		_, _, err := s.Do(context.Background(), testKey(0), func(context.Context) (any, int64, error) {
			close(started)
			<-release
			return "owner", 8, nil
		})
		owner <- err
	}()
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, src, err := s.Do(ctx, testKey(0), func(context.Context) (any, int64, error) {
		t.Error("a waiter computed the key its flight owner is computing")
		return nil, 0, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) || src != Shared {
		t.Fatalf("waiter returned (%v, %v), want (Shared, context.DeadlineExceeded)", src, err)
	}
	close(release)
	if err := <-owner; err != nil {
		t.Fatalf("flight owner: %v", err)
	}
	if !s.Contains(testKey(0)) {
		t.Fatal("the owner's result was not cached after its waiter gave up")
	}
}
