// Package comm defines the rank-side communication surface the parallel
// samplers run against: a Comm of P ranks, each driven through a Rank
// handle offering exactly what the samplers call — nonblocking
// point-to-point sends, a deterministic receive-from-any (AnyRecv
// delivers by modeled arrival stamp, sender rank breaking ties), one
// gather of every rank's partial result to rank 0 (Gatherv), abort
// propagation, and byte/message accounting.
//
// The runtime itself lives here once, as the per-rank Engine: its queues,
// delivery rule, gather, clock advances, accounting and abort handling are
// shared by both backends, which differ only in the Link that carries an
// engine's frames. internal/mpisim hosts all P engines in one process and
// hands frames between them by reference (the Figure-10 model);
// internal/transport hosts one engine per process and carries its frames
// over TCP. A sampler therefore produces byte-identical edge sets,
// per-rank clocks and traffic counters on either backend by construction;
// the differential tests in internal/transport check it.
//
// The engine never reads the machine clock: wall-clock stamps belong to
// the backends' Run.
package comm

import "context"

// Message is a payload between ranks.
type Message struct {
	From    int
	Payload any
	Bytes   int     // accounted payload size
	Arrive  float64 // modeled arrival time at the receiver (seconds)
}

// AbortSignal is the sentinel a rank goroutine unwinds with when its run is
// aborted. Comm implementations panic with it from blocking primitives
// (and from Rank.Abort) and recover it — and only it — inside Comm.Run.
type AbortSignal struct{}

// Rank is one processor's handle inside Comm.Run. All methods must be
// called only from the goroutine the handle was passed to (SPMD
// discipline: the same kernel closure runs on every rank).
type Rank interface {
	// ID returns this rank's index in [0, P).
	ID() int
	// P returns the communicator size.
	P() int
	// Ops returns the operations charged so far via Compute.
	Ops() int64
	// Clock returns the rank's virtual time in modeled seconds.
	Clock() float64
	// Compute charges n elementary operations of local work, advancing the
	// virtual clock by n·SecondsPerOp.
	Compute(n int64)

	// Send posts a message to rank `to`. It never blocks (per-pair queues
	// are unbounded), so no send/receive ordering can deadlock a run. The
	// sender's clock pays the per-message overhead; the message is stamped
	// with its modeled arrival time (send time + latency + bytes/bandwidth).
	Send(to int, payload any, size int)
	// AnyRecv receives from any of the given sources: it returns the
	// pending message with the smallest modeled arrival time (sender rank
	// breaks ties) and advances the receiver's clock to that arrival (if
	// not already past it) plus the per-message overhead. To keep delivery
	// deterministic it waits until every listed source has at least one
	// pending message — only then is the earliest virtual arrival
	// decidable. Callers drop a source from the set once its end-of-stream
	// message arrives.
	AnyRecv(sources []int) Message
	// Gatherv gathers every rank's (variable-size) payload to rank 0. On
	// rank 0 the returned slice holds rank i's payload at index i; every
	// other rank posts its contribution, pays the send overhead and gets
	// nil back without waiting. Rank 0 takes each source's contributions
	// in the order they were posted, so a kernel that gathers k times
	// receives the k rounds in order.
	Gatherv(payload any, size int) []any

	// Abort unwinds the calling rank goroutine with AbortSignal; Comm.Run
	// recovers it. Rank compute loops call this when they observe a
	// cancelled context.
	Abort()
}

// Comm is a communicator over P ranks. A simulated communicator hosts all
// P ranks in-process; a transport communicator hosts exactly one local
// rank and reaches the rest over the wire — either way Run drives every
// locally-hosted rank and returns once they have finished or unwound.
type Comm interface {
	// P returns the number of ranks.
	P() int
	// Run executes fn on every locally-hosted rank and waits for
	// completion. An aborted run still returns once every local rank has
	// finished or unwound; the error is the run's first failure (a
	// transport error, a protocol violation, a cancellation, or
	// ErrAborted), nil for a clean run.
	Run(fn func(r Rank)) error
	// Abort marks the run as aborted and wakes every local rank blocked in
	// a receive or gather. Safe to call from any goroutine, repeatedly.
	Abort()
	// AbortOnCancel aborts the communicator when ctx is cancelled. The
	// returned stop function releases the watcher; call it (typically via
	// defer) after Run returns.
	AbortOnCancel(ctx context.Context) (stop func())

	// Messages returns the total point-to-point messages sent (local ranks).
	Messages() int64
	// Bytes returns the total point-to-point payload bytes sent.
	Bytes() int64
	// CollMessages returns the modeled message count of the gathers.
	CollMessages() int64
	// CollBytes returns the modeled payload bytes moved by the gathers.
	CollBytes() int64
	// FillStats copies the run's accounting into s: per-rank operation
	// counts, virtual clocks and wall clocks, point-to-point traffic, and
	// gather traffic. Complete only on a simulated communicator or on
	// the distributed rank that gathers remote stats (rank 0).
	FillStats(s *RunStats)
}
