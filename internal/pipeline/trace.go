package pipeline

import (
	"context"
	"sync"
	"time"
)

// TraceEntry records one stage request observed by a traced context: which
// artifact, whether it was computed / served resident / joined in-flight,
// and how long the request took (for hits, effectively zero).
type TraceEntry struct {
	Key      Key
	Source   Source
	Duration time.Duration
	Err      error
}

// Trace collects the stage requests of one pipeline run. Safe for
// concurrent use (stages fan out across goroutines).
type Trace struct {
	mu      sync.Mutex
	entries []TraceEntry
}

// Entries returns a snapshot of the recorded entries in request-completion
// order.
func (t *Trace) Entries() []TraceEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]TraceEntry(nil), t.entries...)
}

type traceCtxKey struct{}

type observerCtxKey struct{}

// WithTrace returns a context whose engine requests record into the
// returned Trace — the per-request observability hook behind the
// `parsample pipeline` stage-timing table.
func WithTrace(ctx context.Context) (context.Context, *Trace) {
	t := &Trace{}
	return context.WithValue(ctx, traceCtxKey{}, t), t
}

// WithObserver returns a context whose engine requests additionally invoke
// fn as each stage request completes — the live-progress hook behind the
// daemon's SSE event stream and cache-provenance header. fn runs on the
// requesting goroutine with no engine locks held; it composes with
// WithTrace (both fire) and must be cheap and non-blocking.
func WithObserver(ctx context.Context, fn func(TraceEntry)) context.Context {
	return context.WithValue(ctx, observerCtxKey{}, fn)
}

// traceRecord appends an entry when ctx carries a Trace, and invokes the
// observer when ctx carries one.
func traceRecord(ctx context.Context, key Key, src Source, d time.Duration, err error) {
	e := TraceEntry{Key: key, Source: src, Duration: d, Err: err}
	if t, _ := ctx.Value(traceCtxKey{}).(*Trace); t != nil {
		t.mu.Lock()
		t.entries = append(t.entries, e)
		t.mu.Unlock()
	}
	if fn, _ := ctx.Value(observerCtxKey{}).(func(TraceEntry)); fn != nil {
		fn(e)
	}
}
