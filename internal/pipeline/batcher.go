package pipeline

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"parsample/internal/expr"
	"parsample/internal/faultinject"
	"parsample/internal/graph"
)

// sweepBatcher coalesces concurrent network-stage sweeps over the same
// dataset into one batched kernel invocation (expr.BatchBuildNetworks).
//
// The store's singleflight already merges requests with IDENTICAL network
// keys; what it cannot merge is N concurrent requests over one matrix
// that differ only in their admission parameters (thresholds, p-cut, sign
// gate) — each has a distinct artifact key, so each would pay its own full
// O(genes²·samples) sweep. The batcher closes that gap: the first such
// request becomes the batch leader, holds the batch open for one batch
// window so concurrent arrivals with the same (input, statistic) can
// register their specs, then runs ONE multi-spec sweep and
// hands each waiter its own graph. The marginal cost per extra spec is a
// threshold comparison per candidate pair (<1.3× a single sweep for
// k = 4; bench_test.go), so the window trades ~milliseconds of added
// latency for an ~k× reduction in kernel work under concurrent load.
//
// Protocol invariants:
//   - Only the leader acquires an engine worker slot, and only around the
//     kernel — a follower waiting on a batch holds nothing, so a
//     Workers=1 engine cannot deadlock against its own batch.
//   - The batch is keyed by (Input.Name, statistic): Name uniquely
//     identifies the data (the Input contract), and mixed statistics
//     cannot share a sweep. Precision is ignored by the engine, so
//     requests that differ only in it share one.
//   - A cancelled leader delivers a retriable error; followers whose own
//     context is still live re-enter and a new leader forms (the same
//     semantics Store.Do gives waiters of a cancelled owner).
//   - A leader that fails or panics before delivery still answers every
//     waiter (panics are contained into errors), so no follower is ever
//     stranded on its channel.
//
// The window is atomically adjustable at runtime: the serving tier widens
// it under sustained load (graceful degradation — more coalescing, less
// kernel work) and restores it when pressure drops.
type sweepBatcher struct {
	window   atomic.Int64 // nanoseconds; ≤ 0: the leader does not wait
	mu       sync.Mutex
	pending  map[sweepKey]*sweepBatch
	batches  atomic.Int64 // kernel invocations through the batcher
	requests atomic.Int64 // network builds served by those invocations
}

// sweepKey scopes a batch to sweeps that can share one kernel pass.
type sweepKey struct {
	name string
	kind expr.CorrelationKind
}

// sweepBatch is one open batch: the specs registered so far and their
// result channels.
type sweepBatch struct {
	waiters []sweepWaiter
}

type sweepWaiter struct {
	spec expr.SweepSpec
	ch   chan sweepResult // buffered(1): delivery never blocks on a gone waiter
}

type sweepResult struct {
	g   *graph.Graph
	err error
}

func newSweepBatcher(window time.Duration) *sweepBatcher {
	b := &sweepBatcher{pending: make(map[sweepKey]*sweepBatch)}
	b.window.Store(int64(window))
	return b
}

// Window returns the current batch window (≤ 0: the leader does not wait).
func (b *sweepBatcher) Window() time.Duration { return time.Duration(b.window.Load()) }

// SetWindow atomically replaces the batch window. In-flight batches keep
// the window they opened with; the next build observes the new value.
func (b *sweepBatcher) SetWindow(d time.Duration) { b.window.Store(int64(d)) }

// build produces the correlation network of in.Matrix under in.Net,
// batching with concurrent builds over the same key. With no window the
// leader closes its batch at once, so a lone build is a batch of one.
func (b *sweepBatcher) build(ctx context.Context, e *Engine, in Input) (*graph.Graph, error) {
	key := sweepKey{name: in.Name, kind: in.Net.Kind}
	for {
		ch := make(chan sweepResult, 1)
		w := sweepWaiter{spec: in.Net.SweepSpec(), ch: ch}
		b.mu.Lock()
		batch := b.pending[key]
		lead := batch == nil
		if lead {
			batch = &sweepBatch{}
			b.pending[key] = batch
		}
		batch.waiters = append(batch.waiters, w)
		b.mu.Unlock()

		if lead {
			b.lead(ctx, e, in, key, batch)
		}
		select {
		case res := <-ch:
			if res.err == nil {
				return res.g, nil
			}
			// Leader cancellation is not ours (mirrors Store.Do): retry
			// with our own context if it is still live.
			if !errors.Is(res.err, context.Canceled) && !errors.Is(res.err, context.DeadlineExceeded) {
				return nil, res.err
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		case <-ctx.Done():
			// The buffered channel absorbs the eventual delivery; nothing
			// leaks.
			return nil, ctx.Err()
		}
	}
}

// lead runs the leader's side: hold the batch open for the window (if
// any), close it, run one multi-spec sweep under a worker slot, and deliver
// every waiter its graph. The leader is itself a registered waiter; its
// result arrives on its own channel like everyone else's.
func (b *sweepBatcher) lead(ctx context.Context, e *Engine, in Input, key sweepKey, batch *sweepBatch) {
	if w := b.Window(); w > 0 {
		timer := time.NewTimer(w)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
		}
	}

	b.mu.Lock()
	delete(b.pending, key) // later arrivals form a fresh batch
	waiters := batch.waiters
	b.mu.Unlock()

	gs, err := b.leadRun(ctx, e, in, waiters)
	for i, w := range waiters {
		if err != nil {
			w.ch <- sweepResult{err: err}
		} else {
			w.ch <- sweepResult{g: gs[i]}
		}
	}
}

// leadRun is the leader's kernel invocation with its failure surface
// pinned down: the handoff failpoint fires here, and a panicking kernel is
// contained into an error (Contain) so the delivery loop above always
// runs — a leader failure must never strand followers on their channels.
func (b *sweepBatcher) leadRun(ctx context.Context, e *Engine, in Input, waiters []sweepWaiter) (gs []*graph.Graph, err error) {
	err = Contain("pipeline: batched sweep", func() error {
		// Failpoint: leader handoff (under Contain, so a panic-mode arming
		// is contained too). Injecting context.Canceled here exercises the
		// follower-retry path (a new leader forms); any other error is
		// delivered to every waiter as the batch's failure.
		if err := faultinject.Eval("pipeline.batcher.lead"); err != nil {
			return err
		}
		var err error
		gs, err = b.run(ctx, e, in, waiters)
		return err
	})
	return gs, err
}

// run executes the batched kernel for the closed batch, deduplicating
// identical specs, and returns one graph per waiter.
func (b *sweepBatcher) run(ctx context.Context, e *Engine, in Input, waiters []sweepWaiter) ([]*graph.Graph, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	specs := make([]expr.SweepSpec, 0, len(waiters))
	idx := make([]int, len(waiters)) // waiter -> spec
	for i, w := range waiters {
		at := -1
		for j, sp := range specs {
			if sp == w.spec {
				at = j
				break
			}
		}
		if at < 0 {
			at = len(specs)
			specs = append(specs, w.spec)
		}
		idx[i] = at
	}

	release, err := e.slot(ctx)
	if err != nil {
		return nil, err
	}
	defer release()
	b.batches.Add(1)
	b.requests.Add(int64(len(waiters)))
	built, err := expr.BatchBuildNetworksContext(ctx, in.Matrix, in.Net, specs)
	if err != nil {
		return nil, err
	}
	gs := make([]*graph.Graph, len(waiters))
	for i := range waiters {
		gs[i] = built[idx[i]]
	}
	return gs, nil
}
