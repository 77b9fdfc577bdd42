package comm

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// ErrAborted is the failure a run records when a rank unwinds through
// AbortSignal (Rank.Abort, Comm.Abort) before any other cause was recorded.
var ErrAborted = errors.New("comm: run aborted")

// FrameKind tells apart the two frames engines exchange.
type FrameKind uint8

const (
	// FrameData is a point-to-point message.
	FrameData FrameKind = iota
	// FrameDeposit is one rank's Gatherv contribution, sent to rank 0.
	FrameDeposit
)

// Frame is the unit an engine hands its Link: a message — the whole
// point-to-point message on data frames, the contribution (Payload, Bytes)
// on deposits — and, on deposits, the depositor's virtual clock.
type Frame struct {
	Kind FrameKind
	Message
	Clock float64 // deposit: the depositor's virtual clock
}

// Link carries an engine's frames to its peers. The simulator's link hands
// each frame by reference to the peer engine's Deliver; the TCP link
// encodes it, and its reader decodes into the peer engine's Deliver.
type Link interface {
	// Post hands f to rank to without blocking. An error fails the run.
	Post(to int, f *Frame) error
	// Fail fans a failure out to the peers. The engine calls it once,
	// after recording err and waking its own rank.
	Fail(err error)
}

// Engine is one rank of a run: it implements Rank over a Link and holds
// the single copy of the runtime's rules — the per-source queues and the
// AnyRecv delivery rule, the gather to rank 0, the virtual-clock advances,
// traffic accounting, and abort.
type Engine struct {
	id, p int
	model CostModel
	link  Link
	ops   int64
	clock float64

	traffic [4]atomic.Int64 // indexed by msgs, bytes, collMsgs, collBytes

	mu       sync.Mutex
	cond     *sync.Cond
	q        [][]Message // pending point-to-point messages, by source
	deposits [][]*Frame  // rank 0: pending Gatherv deposits, by source, in posting order
	err      error       // first recorded failure
	sealed   bool        // run complete: later failures are teardown noise
}

var _ Rank = (*Engine)(nil)

// Traffic counter indices.
const (
	msgs = iota
	bytes
	collMsgs
	collBytes
)

// NewEngine creates rank id of a p-rank run whose clocks advance under m
// and whose frames travel over link.
func NewEngine(id, p int, m CostModel, link Link) *Engine {
	e := &Engine{id: id, p: p, model: m, link: link, q: make([][]Message, p)}
	if id == 0 {
		e.deposits = make([][]*Frame, p)
	}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// ID returns this rank's index in [0, P).
func (e *Engine) ID() int { return e.id }

// P returns the communicator size.
func (e *Engine) P() int { return e.p }

// Ops returns the operations charged so far via Compute.
func (e *Engine) Ops() int64 { return e.ops }

// Clock returns the rank's virtual time in modeled seconds.
func (e *Engine) Clock() float64 { return e.clock }

// Compute charges n elementary operations of local work.
func (e *Engine) Compute(n int64) {
	e.ops += n
	e.clock += float64(n) * e.model.SecondsPerOp
}

// Abort unwinds the calling rank goroutine with AbortSignal.
func (e *Engine) Abort() { panic(AbortSignal{}) }

// Send posts a message to rank to; see Rank.Send.
func (e *Engine) Send(to int, payload any, size int) {
	if to == e.id || to < 0 || to >= e.p {
		panic(fmt.Sprintf("comm: rank %d sending to %d", e.id, to))
	}
	var arrive float64
	e.clock, arrive = e.model.SendAdvance(e.clock, size)
	e.traffic[msgs].Add(1)
	e.traffic[bytes].Add(int64(size))
	e.post(to, &Frame{Kind: FrameData, Message: Message{From: e.id, Payload: payload, Bytes: size, Arrive: arrive}})
}

// post hands f to the link. A link failure fails the run and unwinds the
// rank, so kernels never see a half-sent state.
func (e *Engine) post(to int, f *Frame) {
	if err := e.link.Post(to, f); err != nil {
		e.Fail(err)
		panic(AbortSignal{})
	}
}

// AnyRecv waits until every listed source has a pending message, then
// delivers the one with the smallest modeled arrival stamp, the lower
// sender rank breaking ties. Wall-clock arrival order plays no part.
func (e *Engine) AnyRecv(sources []int) Message {
	if len(sources) == 0 {
		panic("comm: AnyRecv with no sources")
	}
	e.mu.Lock()
	for !e.pendingLocked(sources) {
		e.waitLocked()
	}
	best := sources[0]
	for _, s := range sources[1:] {
		h, b := e.q[s][0], e.q[best][0]
		if h.Arrive < b.Arrive || (h.Arrive == b.Arrive && s < best) {
			best = s
		}
	}
	msg := pop(e.q, best)
	e.mu.Unlock()
	e.clock = e.model.RecvAdvance(e.clock, msg.Arrive)
	return msg
}

func (e *Engine) pendingLocked(sources []int) bool {
	for _, s := range sources {
		if len(e.q[s]) == 0 {
			return false
		}
	}
	return true
}

// pop removes and returns the head of q[from], letting a drained queue's
// backing array go; the caller holds mu.
func pop[T any](q [][]T, from int) T {
	var zero T
	v := q[from][0]
	q[from][0] = zero // release the payload
	q[from] = q[from][1:]
	if len(q[from]) == 0 {
		q[from] = nil
	}
	return v
}

// waitLocked sleeps until the next delivery or failure; caller holds mu.
// A failed run unwinds the rank instead.
func (e *Engine) waitLocked() {
	if e.err != nil {
		e.mu.Unlock()
		panic(AbortSignal{})
	}
	e.cond.Wait()
}

// Gatherv gathers every rank's payload to rank 0; see Rank.Gatherv. A
// contributor deposits its payload with its clock and moves on; rank 0
// takes the oldest deposit of every source, then advances its clock and
// books the gather's traffic through GathervAdvance.
func (e *Engine) Gatherv(payload any, size int) []any {
	if e.id != 0 {
		e.post(0, &Frame{Kind: FrameDeposit, Message: Message{From: e.id, Payload: payload, Bytes: size}, Clock: e.clock})
		e.clock, _, _ = e.model.GathervAdvance(e.p, e.id, e.clock, nil, nil)
		return nil
	}
	clocks, sizes, vals := make([]float64, e.p), make([]int, e.p), make([]any, e.p)
	clocks[0], sizes[0], vals[0] = e.clock, size, payload
	e.mu.Lock()
	for peer := 1; peer < e.p; peer++ {
		for len(e.deposits[peer]) == 0 {
			e.waitLocked()
		}
		d := pop(e.deposits, peer)
		clocks[peer], sizes[peer], vals[peer] = d.Clock, d.Bytes, d.Payload
	}
	e.mu.Unlock()
	var cm, cb int64
	e.clock, cm, cb = e.model.GathervAdvance(e.p, e.id, e.clock, clocks, sizes)
	e.traffic[collMsgs].Add(cm)
	e.traffic[collBytes].Add(cb)
	return vals
}

// Deliver accepts a frame the link received for this rank and wakes the
// rank if it is waiting. It never blocks on the rank. A frame that breaks
// the protocol is returned as an error; the link fails the run with it.
func (e *Engine) Deliver(f *Frame) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	switch {
	case f.From < 0 || f.From >= e.p || f.From == e.id:
		return fmt.Errorf("comm: rank %d got a frame from rank %d", e.id, f.From)
	case f.Kind == FrameData:
		e.q[f.From] = append(e.q[f.From], f.Message)
	case f.Kind == FrameDeposit && e.id == 0:
		e.deposits[f.From] = append(e.deposits[f.From], f)
	default:
		return fmt.Errorf("comm: rank %d got an unexpected frame (kind %d) from rank %d", e.id, f.Kind, f.From)
	}
	e.cond.Broadcast()
	return nil
}

// Fail records err as the run's failure — the first one wins, and a sealed
// run records nothing — wakes the rank out of any blocking primitive (it
// unwinds with AbortSignal), and has the link fan the failure out.
func (e *Engine) Fail(err error) {
	e.mu.Lock()
	if e.sealed || e.err != nil {
		e.mu.Unlock()
		return
	}
	e.err = err
	e.cond.Broadcast()
	e.mu.Unlock()
	e.link.Fail(err)
}

// Err returns the recorded failure, if any.
func (e *Engine) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Seal marks the run complete and returns its failure, if any. A sealed
// engine ignores later failures, so the hangups of a mesh being torn down
// cannot fail a clean result after the fact.
func (e *Engine) Seal() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sealed = true
	return e.err
}

// Exec runs fn as this rank. A rank that unwinds with AbortSignal fails
// the run with ErrAborted (an earlier cause stays recorded); any other
// panic propagates.
func (e *Engine) Exec(fn func(Rank)) {
	defer func() {
		if v := recover(); v != nil {
			if _, ok := v.(AbortSignal); !ok {
				panic(v)
			}
			e.Fail(ErrAborted)
		}
	}()
	fn(e)
}

// Engines is the communicator half of Comm over the engines one process
// hosts: all P under simulation, one under TCP. Backends embed it and add
// Run and FillStats.
type Engines []*Engine

// P returns the number of ranks.
func (es Engines) P() int { return es[0].p }

// Abort fails the run with ErrAborted, waking every blocked rank.
func (es Engines) Abort() { es.Fail(ErrAborted) }

// Fail fails every hosted engine with err.
func (es Engines) Fail(err error) {
	for _, e := range es {
		e.Fail(err)
	}
}

// Err returns the first recorded failure in rank order, if any.
func (es Engines) Err() error {
	for _, e := range es {
		if err := e.Err(); err != nil {
			return err
		}
	}
	return nil
}

// AbortOnCancel fails the run when ctx is cancelled; call stop after Run.
func (es Engines) AbortOnCancel(ctx context.Context) (stop func()) {
	cancel := context.AfterFunc(ctx, func() {
		es.Fail(fmt.Errorf("comm: run cancelled: %w", context.Cause(ctx)))
	})
	return func() { cancel() }
}

func (es Engines) total(counter int) int64 {
	var n int64
	for _, e := range es {
		n += e.traffic[counter].Load()
	}
	return n
}

// Messages returns the point-to-point messages the hosted ranks sent.
func (es Engines) Messages() int64 { return es.total(msgs) }

// Bytes returns the point-to-point payload bytes the hosted ranks sent.
func (es Engines) Bytes() int64 { return es.total(bytes) }

// CollMessages returns the modeled gather messages the hosted ranks booked.
func (es Engines) CollMessages() int64 { return es.total(collMsgs) }

// CollBytes returns the modeled gather bytes the hosted ranks booked.
func (es Engines) CollBytes() int64 { return es.total(collBytes) }

// FillStats resets s for a P-rank run and fills in the hosted ranks'
// operation counts and virtual clocks and their traffic totals. Backends
// add wall clocks and whatever they gathered from ranks they do not host.
func (es Engines) FillStats(s *RunStats) {
	p := es.P()
	*s = RunStats{
		P:               p,
		RankOps:         make([]int64, p),
		RankSeconds:     make([]float64, p),
		RankWallSeconds: make([]float64, p),
		Messages:        es.Messages(),
		Bytes:           es.Bytes(),
		CollMessages:    es.CollMessages(),
		CollBytes:       es.CollBytes(),
	}
	for _, e := range es {
		s.RankOps[e.id] = e.ops
		s.RankSeconds[e.id] = e.clock
	}
}
