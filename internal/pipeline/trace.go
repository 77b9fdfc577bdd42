package pipeline

import (
	"context"
	"time"
)

// TraceEntry records one stage request observed through WithObserver:
// which artifact, whether it was computed / served resident / joined
// in-flight, and how long the request took (for hits, effectively zero).
type TraceEntry struct {
	Key      Key
	Source   Source
	Duration time.Duration
	Err      error
}

type observerCtxKey struct{}

// WithObserver returns a context whose engine requests invoke fn as each
// stage request completes — the one per-request observability hook,
// behind the daemon's SSE event stream and cache-provenance header and
// the `parsample pipeline` stage-timing table. fn runs on the requesting
// goroutine with no engine locks held, so it must be cheap and
// non-blocking, and it runs concurrently with itself when the caller fans
// requests out (Engine.Warm).
func WithObserver(ctx context.Context, fn func(TraceEntry)) context.Context {
	return context.WithValue(ctx, observerCtxKey{}, fn)
}

// traceRecord invokes the observer when ctx carries one.
func traceRecord(ctx context.Context, key Key, src Source, d time.Duration, err error) {
	if fn, _ := ctx.Value(observerCtxKey{}).(func(TraceEntry)); fn != nil {
		fn(TraceEntry{Key: key, Source: src, Duration: d, Err: err})
	}
}
