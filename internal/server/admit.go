package server

import (
	"context"
	"math"
	"sync"
	"time"

	"parsample/api"
)

// The admission gate (DESIGN.md §8) keeps the daemon inside its compute
// budget: every request is priced in cost units (api.EstimateCost; 1 unit
// ≈ 1 ms of single-threaded kernel time on the reference machine) and
// must acquire that many units from a weighted semaphore before any
// kernel runs. Requests that do not fit wait in a bounded FIFO queue —
// two of them, one per priority class, interactive served strictly before
// batch — and requests beyond the queue bound are rejected immediately
// with a structured 429 carrying Retry-After. A per-client token bucket
// (X-Parsample-Client) keeps one chatty client from monopolizing the
// budget. The gate never blocks cheap work behind the mutex: admission is
// O(1) bookkeeping; only over-budget requests park.

// Priority classes. Interactive waiters are granted strictly before batch
// waiters (head-of-line within a class is FIFO; a big interactive head is
// never bypassed, so it cannot starve).
type classID int

const (
	classInteractive classID = iota
	classBatch
	numClasses
)

// Request headers read by the admission layer.
const (
	// PriorityHeader selects the class: "interactive" (default for
	// POST /v1/pipeline) or "batch" (default for POST /v1/jobs).
	PriorityHeader = "X-Parsample-Priority"
	// ClientHeader identifies the caller for per-client fairness; absent
	// callers share the "anonymous" bucket.
	ClientHeader = "X-Parsample-Client"
)

// admitConfig parameterizes the gate; zero fields select defaults in
// newAdmitGate.
type admitConfig struct {
	// Capacity is the concurrent compute budget in cost units.
	Capacity float64
	// QueueLimit bounds queued waiters across both classes.
	QueueLimit int
	// ClientRate is each client's token-bucket refill in units/second;
	// ClientBurst is the bucket depth.
	ClientRate  float64
	ClientBurst float64
}

type admitWaiter struct {
	units float64
	ready chan struct{} // closed on grant
}

// tokenBucket is one client's fair-share budget.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// interactiveHeadroomFrac sizes the express lane: an interactive request
// costing no more than this fraction of capacity may overdraft the
// semaphore by the same fraction instead of queueing. A cold burst that
// saturates the budget then cannot push cached interactive lookups from
// sub-millisecond to multi-kernel queue waits. The overdraft is bounded
// (≤ 5% of capacity outstanding beyond the budget) and queued waiters
// still drain against the base capacity, so batch work is delayed by at
// most the headroom slice, never starved.
const interactiveHeadroomFrac = 0.05

// admitGate is the weighted-semaphore admission gate.
type admitGate struct {
	cfg admitConfig

	mu      sync.Mutex
	inUse   float64
	queues  [numClasses][]*admitWaiter
	queued  int
	clients map[string]*tokenBucket

	admitted        int64
	rejOverloaded   int64
	rejOverCapacity int64
	rejDegraded     int64
	rejThrottled    int64
	rejTooLarge     int64
	shedCold        int64
	shedSSE         int64

	now func() time.Time // test hook for bucket refill
}

func newAdmitGate(cfg admitConfig) *admitGate {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 2000
	}
	if cfg.QueueLimit <= 0 {
		cfg.QueueLimit = 64
	}
	if cfg.ClientRate <= 0 {
		cfg.ClientRate = cfg.Capacity / 2
	}
	if cfg.ClientBurst <= 0 {
		cfg.ClientBurst = cfg.Capacity
	}
	return &admitGate{cfg: cfg, clients: make(map[string]*tokenBucket), now: time.Now}
}

// Admit acquires units for one request, waiting in the class queue when
// the budget is full. It returns a release closure on success, or a
// structured rejection: over_capacity when the request can never fit,
// overloaded (with Retry-After) when the queue is full or the client's
// fair share is spent. ctx abandons the wait (queue time is the caller's
// to bound; compute deadlines start after admission).
func (g *admitGate) Admit(ctx context.Context, client string, class classID, units float64) (func(), *api.Error) {
	if units < 1 {
		units = 1
	}
	g.mu.Lock()
	if units > g.cfg.Capacity {
		g.rejOverCapacity++
		g.mu.Unlock()
		return nil, api.Errorf(api.CodeOverCapacity,
			"request costs %.0f units but the server's whole budget is %.0f; it can never be admitted under current limits", units, g.cfg.Capacity)
	}
	fits := g.queued == 0 && g.inUse+units <= g.cfg.Capacity
	if !fits && class == classInteractive && units <= interactiveHeadroomFrac*g.cfg.Capacity {
		// Express lane: cheap interactive work bypasses the queue into the
		// bounded headroom overdraft.
		fits = g.inUse+units <= (1+interactiveHeadroomFrac)*g.cfg.Capacity
	}
	if !fits && g.queued >= g.cfg.QueueLimit {
		g.rejOverloaded++
		retry := g.retryAfterLocked(units)
		g.mu.Unlock()
		ae := api.Errorf(api.CodeOverloaded, "admission queue is full (%d waiters); retry after %ds", g.cfg.QueueLimit, retry)
		ae.RetryAfterSec = retry
		return nil, ae
	}
	if retry, ok := g.chargeClientLocked(client, units); !ok {
		g.rejThrottled++
		g.mu.Unlock()
		ae := api.Errorf(api.CodeOverloaded, "client %q spent its fair-share budget; retry after %ds", client, retry)
		ae.RetryAfterSec = retry
		return nil, ae
	}
	if fits {
		g.inUse += units
		g.admitted++
		g.mu.Unlock()
		return g.releaseFunc(units), nil
	}
	w := &admitWaiter{units: units, ready: make(chan struct{})}
	g.queues[class] = append(g.queues[class], w)
	g.queued++
	g.mu.Unlock()

	select {
	case <-w.ready:
		g.mu.Lock()
		g.admitted++
		g.mu.Unlock()
		return g.releaseFunc(units), nil
	case <-ctx.Done():
		g.mu.Lock()
		for c := range g.queues {
			for i, q := range g.queues[c] {
				if q == w {
					g.queues[c] = append(g.queues[c][:i], g.queues[c][i+1:]...)
					g.queued--
					g.mu.Unlock()
					ae := api.WrapError(api.CodeCancelled, ctx.Err(), "abandoned admission queue: %v", ctx.Err())
					return nil, ae
				}
			}
		}
		g.mu.Unlock()
		// Granted concurrently with cancellation: hand the units straight
		// back (the grant already left the queue).
		g.release(units)
		return nil, api.WrapError(api.CodeCancelled, ctx.Err(), "abandoned admission queue: %v", ctx.Err())
	}
}

func (g *admitGate) releaseFunc(units float64) func() {
	var once sync.Once
	return func() { once.Do(func() { g.release(units) }) }
}

func (g *admitGate) release(units float64) {
	g.mu.Lock()
	g.inUse -= units
	if g.inUse < 0 {
		g.inUse = 0
	}
	g.grantLocked()
	g.mu.Unlock()
}

// grantLocked wakes queued waiters in strict priority order while they
// fit. The head of the interactive queue blocks everything behind it —
// deliberate: skipping a large waiter in favor of small ones would starve
// it under sustained small-request load.
func (g *admitGate) grantLocked() {
	for {
		var q *[]*admitWaiter
		switch {
		case len(g.queues[classInteractive]) > 0:
			q = &g.queues[classInteractive]
		case len(g.queues[classBatch]) > 0:
			q = &g.queues[classBatch]
		default:
			return
		}
		w := (*q)[0]
		if g.inUse+w.units > g.cfg.Capacity {
			return
		}
		g.inUse += w.units
		*q = (*q)[1:]
		g.queued--
		close(w.ready)
	}
}

// chargeClientLocked spends units from client's token bucket, refilling
// by elapsed time first. On insufficient tokens it reports the seconds
// until the bucket covers the request.
func (g *admitGate) chargeClientLocked(client string, units float64) (retryAfter int, ok bool) {
	b := g.clients[client]
	now := g.now()
	if b == nil {
		b = &tokenBucket{tokens: g.cfg.ClientBurst, last: now}
		g.clients[client] = b
		// Bound the map: a client id costs ~few dozen bytes; a loadgen or
		// adversary cycling ids would otherwise grow it without limit.
		if len(g.clients) > 4096 {
			for k := range g.clients {
				if k != client {
					delete(g.clients, k)
					break
				}
			}
		}
	}
	b.tokens = math.Min(g.cfg.ClientBurst, b.tokens+g.cfg.ClientRate*now.Sub(b.last).Seconds())
	b.last = now
	// A request bigger than the bucket depth could never pass; cap its
	// charge at the depth so over-capacity pricing stays the semaphore's
	// job, not the fairness layer's.
	charge := math.Min(units, g.cfg.ClientBurst)
	if b.tokens < charge {
		return clampRetry((charge - b.tokens) / g.cfg.ClientRate), false
	}
	b.tokens -= charge
	return 0, true
}

// retryAfterLocked estimates when capacity for units frees up: the
// backlog ahead of the caller drained at full capacity.
func (g *admitGate) retryAfterLocked(units float64) int {
	backlog := g.inUse + units
	for c := range g.queues {
		for _, w := range g.queues[c] {
			backlog += w.units
		}
	}
	// Units are ≈ milliseconds of single-threaded compute; capacity units
	// run concurrently, so the drain estimate is backlog/capacity seconds
	// scaled by the unit's 1ms grain.
	return clampRetry(backlog / g.cfg.Capacity)
}

func clampRetry(sec float64) int {
	s := int(math.Ceil(sec))
	if s < 1 {
		s = 1
	}
	if s > 60 {
		s = 60
	}
	return s
}

// Degradation levels (the ladder's rungs; DESIGN.md §8).
const (
	// degradeNone: normal operation.
	degradeNone = iota
	// degradeQueued: sustained pressure — a queue is forming or most of
	// the budget is in use. Reported in /statsz; everything still admitted.
	degradeQueued
	// degradeShedCold: near saturation — cold synthesis requests (whose
	// artifacts are not resident) are shed with 503 degraded before any
	// cached work is turned away.
	degradeShedCold
)

// queueFull reports whether a request of units would be rejected at the
// queue bound right now (it neither fits immediately nor finds queue
// room). The serving tier consults it so a doomed request gets the
// honest 429 overloaded instead of a 503 degraded shed.
func (g *admitGate) queueFull(units float64) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	fits := g.queued == 0 && g.inUse+units <= g.cfg.Capacity
	return !fits && g.queued >= g.cfg.QueueLimit
}

// level derives the current degradation rung from gate pressure: queue
// formation marks level 1, a half-full queue marks level 2. Reading it is
// O(1); the serving tier re-evaluates on every admission and release.
func (g *admitGate) level() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch {
	case g.queued > g.cfg.QueueLimit/2:
		return degradeShedCold
	case g.queued > 0 || g.inUse > 0.75*g.cfg.Capacity:
		return degradeQueued
	default:
		return degradeNone
	}
}

func (g *admitGate) countShedCold() {
	g.mu.Lock()
	g.shedCold++
	g.rejDegraded++
	g.mu.Unlock()
}

func (g *admitGate) countShedSSE() {
	g.mu.Lock()
	g.shedSSE++
	g.mu.Unlock()
}

func (g *admitGate) countTooLarge() {
	g.mu.Lock()
	g.rejTooLarge++
	g.mu.Unlock()
}

// admitStats is the /statsz wire form of the gate.
type admitStats struct {
	CapacityUnits float64        `json:"capacityUnits"`
	InUseUnits    float64        `json:"inUseUnits"`
	QueueDepth    int            `json:"queueDepth"`
	QueueLimit    int            `json:"queueLimit"`
	Admitted      int64          `json:"admitted"`
	Rejected      rejectedCounts `json:"rejected"`
	Shed          shedCounts     `json:"shed"`
	Level         int            `json:"level"`
}

// rejectedCounts is the rejection breakdown by structured error class.
type rejectedCounts struct {
	Overloaded      int64 `json:"overloaded"`
	OverCapacity    int64 `json:"overCapacity"`
	Degraded        int64 `json:"degraded"`
	ClientThrottled int64 `json:"clientThrottled"`
	PayloadTooLarge int64 `json:"payloadTooLarge"`
}

// shedCounts tallies graceful-degradation actions.
type shedCounts struct {
	ColdRequests     int64 `json:"coldRequests"`
	SSESlowConsumers int64 `json:"sseSlowConsumers"`
}

func (g *admitGate) stats() admitStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return admitStats{
		CapacityUnits: g.cfg.Capacity,
		InUseUnits:    g.inUse,
		QueueDepth:    g.queued,
		QueueLimit:    g.cfg.QueueLimit,
		Admitted:      g.admitted,
		Rejected: rejectedCounts{
			Overloaded:      g.rejOverloaded,
			OverCapacity:    g.rejOverCapacity,
			Degraded:        g.rejDegraded,
			ClientThrottled: g.rejThrottled,
			PayloadTooLarge: g.rejTooLarge,
		},
		Shed: shedCounts{ColdRequests: g.shedCold, SSESlowConsumers: g.shedSSE},
	}
}
