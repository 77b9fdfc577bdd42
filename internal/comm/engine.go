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

// FrameKind tells apart the three frames engines exchange.
type FrameKind uint8

const (
	// FrameData is a point-to-point message.
	FrameData FrameKind = iota
	// FrameDeposit is one rank's contribution to a collective, sent to rank 0.
	FrameDeposit
	// FrameReply is rank 0's assembled collective, sent to every other rank.
	FrameReply
)

// CollOp names the collective a deposit belongs to. Its values are part of
// the TCP wire format.
type CollOp uint8

const (
	opBarrier CollOp = iota
	opBcast
	opGatherv
	opAllreduce
)

func (op CollOp) String() string {
	if names := [...]string{"Barrier", "Bcast", "Gatherv", "Allreduce"}; int(op) < len(names) {
		return names[op]
	}
	return fmt.Sprintf("CollOp(%d)", int(op))
}

// Frame is the unit an engine hands its Link. The embedded Message carries
// the sender on every frame, the whole message on data frames, and the
// contribution (Payload, Bytes) on deposits.
type Frame struct {
	Kind FrameKind
	Message
	Gen    uint64    // deposit, reply: collective generation
	Op     CollOp    // deposit
	Root   int       // deposit
	Clock  float64   // deposit: the depositor's virtual clock
	Clocks []float64 // reply: every rank's deposit clock
	Sizes  []int     // reply: every rank's deposit size
	Vals   []any     // reply: by rank, only the payloads the receiver's op needs
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
// Recv/AnyRecv delivery rule, the star protocol behind the four
// collectives, the virtual-clock advances, traffic accounting, and abort.
type Engine struct {
	id, p int
	model CostModel
	link  Link
	ops   int64
	clock float64
	gen   uint64 // collective generation, advanced in lockstep on every rank

	traffic [4]atomic.Int64 // indexed by msgs, bytes, collMsgs, collBytes

	mu       sync.Mutex
	cond     *sync.Cond
	q        [][]Message // pending point-to-point messages, by source
	deposits []*Frame    // rank 0: the open generation's deposits, by source
	reply    *Frame      // other ranks: rank 0's reply for the open generation
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
		e.deposits = make([]*Frame, p)
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
func (e *Engine) Send(to, tag int, payload any, size int) {
	if to == e.id || to < 0 || to >= e.p {
		panic(fmt.Sprintf("comm: rank %d sending to %d", e.id, to))
	}
	var arrive float64
	e.clock, arrive = e.model.SendAdvance(e.clock, size)
	e.traffic[msgs].Add(1)
	e.traffic[bytes].Add(int64(size))
	e.post(to, &Frame{Kind: FrameData, Message: Message{From: e.id, Tag: tag, Payload: payload, Bytes: size, Arrive: arrive}})
}

// post hands f to the link. A link failure fails the run and unwinds the
// rank, so kernels never see a half-sent state.
func (e *Engine) post(to int, f *Frame) {
	if err := e.link.Post(to, f); err != nil {
		e.Fail(err)
		panic(AbortSignal{})
	}
}

// Recv returns the oldest pending message from rank from; see Rank.Recv.
func (e *Engine) Recv(from int) Message {
	e.mu.Lock()
	for len(e.q[from]) == 0 {
		e.waitLocked()
	}
	return e.popLocked(from)
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
	return e.popLocked(best)
}

// Sendrecv posts the send (never blocking) and then receives from from.
func (e *Engine) Sendrecv(to, tag int, payload any, size int, from int) Message {
	e.Send(to, tag, payload, size)
	return e.Recv(from)
}

func (e *Engine) pendingLocked(sources []int) bool {
	for _, s := range sources {
		if len(e.q[s]) == 0 {
			return false
		}
	}
	return true
}

// popLocked removes the head of q[from], releases mu, and advances the
// clock to the message's arrival plus the receive overhead.
func (e *Engine) popLocked(from int) Message {
	msg := e.q[from][0]
	e.q[from][0] = Message{} // release the payload
	e.q[from] = e.q[from][1:]
	if len(e.q[from]) == 0 {
		e.q[from] = nil // let the grown backing array go
	}
	e.mu.Unlock()
	e.clock = e.model.RecvAdvance(e.clock, msg.Arrive)
	return msg
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

// Barrier blocks until all P ranks have called it.
func (e *Engine) Barrier() {
	clocks, _, _ := e.collective(opBarrier, 0, nil, 0)
	e.clock = e.model.BarrierAdvance(e.p, e.clock, clocks)
}

// Bcast returns root's payload on every rank.
func (e *Engine) Bcast(root int, payload any, size int) any {
	clocks, sizes, vals := e.collective(opBcast, root, payload, size)
	var cm, cb int64
	e.clock, cm, cb = e.model.BcastAdvance(e.p, e.id, root, e.clock, clocks[root], sizes[root])
	e.book(cm, cb)
	return vals[root]
}

// Gatherv returns every rank's payload, by rank, at root and nil elsewhere.
func (e *Engine) Gatherv(root int, payload any, size int) []any {
	clocks, sizes, vals := e.collective(opGatherv, root, payload, size)
	var cm, cb int64
	e.clock, cm, cb = e.model.GathervAdvance(e.p, e.id, root, e.clock, clocks, sizes)
	e.book(cm, cb)
	if e.id != root {
		return nil
	}
	return vals
}

// Allreduce folds every rank's contribution with op in rank order.
func (e *Engine) Allreduce(v float64, op ReduceOp) float64 {
	clocks, _, vals := e.collective(opAllreduce, 0, v, 8)
	xs := make([]float64, e.p)
	for i, x := range vals {
		f, ok := x.(float64)
		if !ok {
			e.Fail(fmt.Errorf("comm: rank %d Allreduce contribution is %T, want float64", i, x))
			panic(AbortSignal{})
		}
		xs[i] = f
	}
	var cm, cb int64
	e.clock, cm, cb = e.model.AllreduceAdvance(e.p, e.id, e.clock, clocks)
	e.book(cm, cb)
	return Reduce(op, xs)
}

// book charges a collective's modeled traffic to this rank.
func (e *Engine) book(cm, cb int64) {
	e.traffic[collMsgs].Add(cm)
	e.traffic[collBytes].Add(cb)
}

// collective runs one generation of the star protocol and returns every
// rank's deposit clock and size plus the payloads this rank's op needs
// (its own always included). Ranks call collectives in lockstep, so the
// generation counter identifies the exchange. Rank 0 is the hub: it waits
// for the P-1 deposits, fails the run if any disagrees on generation, op
// or root, and replies to each peer with the clock and size vectors and
// only the payloads that peer's op delivers there.
func (e *Engine) collective(op CollOp, root int, payload any, size int) (clocks []float64, sizes []int, vals []any) {
	gen := e.gen
	e.gen++
	if e.p == 1 {
		return []float64{e.clock}, []int{size}, []any{payload}
	}
	if e.id != 0 {
		e.post(0, &Frame{Kind: FrameDeposit, Message: Message{From: e.id, Payload: payload, Bytes: size},
			Gen: gen, Op: op, Root: root, Clock: e.clock})
		e.mu.Lock()
		for e.reply == nil || e.reply.Gen != gen {
			e.waitLocked()
		}
		r := e.reply
		e.reply = nil
		e.mu.Unlock()
		if r.Vals[e.id] == nil {
			r.Vals[e.id] = payload
		}
		return r.Clocks, r.Sizes, r.Vals
	}

	e.mu.Lock()
	for peer := 1; peer < e.p; peer++ {
		for e.deposits[peer] == nil {
			e.waitLocked()
		}
	}
	clocks, sizes, vals = make([]float64, e.p), make([]int, e.p), make([]any, e.p)
	clocks[0], sizes[0], vals[0] = e.clock, size, payload
	var mismatch error
	for peer := 1; peer < e.p; peer++ {
		d := e.deposits[peer]
		e.deposits[peer] = nil
		if d.Gen != gen || d.Op != op || d.Root != root {
			mismatch = fmt.Errorf("comm: collective mismatch: rank %d called %v(root %d) as generation %d, rank 0 called %v(root %d) as generation %d",
				peer, d.Op, d.Root, d.Gen, op, root, gen)
			continue
		}
		clocks[peer], sizes[peer], vals[peer] = d.Clock, d.Bytes, d.Payload
	}
	e.mu.Unlock()
	if mismatch != nil {
		e.Fail(mismatch)
		panic(AbortSignal{})
	}
	for peer := 1; peer < e.p; peer++ {
		need := make([]any, e.p)
		switch {
		case op == opBcast:
			need[root] = vals[root]
		case op == opAllreduce, op == opGatherv && peer == root:
			copy(need, vals)
		}
		e.post(peer, &Frame{Kind: FrameReply, Gen: gen, Clocks: clocks, Sizes: sizes, Vals: need})
	}
	return clocks, sizes, vals
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
		if d := e.deposits[f.From]; d != nil {
			return fmt.Errorf("comm: rank %d deposited generation %d before %d was consumed", f.From, f.Gen, d.Gen)
		}
		e.deposits[f.From] = f
	case f.Kind == FrameReply && f.From == 0 && len(f.Vals) == e.p && len(f.Clocks) == e.p && len(f.Sizes) == e.p:
		e.reply = f
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

// CollMessages returns the modeled collective messages the hosted ranks booked.
func (es Engines) CollMessages() int64 { return es.total(collMsgs) }

// CollBytes returns the modeled collective bytes the hosted ranks booked.
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
