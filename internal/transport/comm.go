package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"

	"parsample/internal/comm"
	"parsample/internal/faultinject"
)

// Default timeouts. Handshakes and teardown waits are bounded so a dead
// peer fails the run instead of wedging it; in-run receives are unbounded
// (cancellation arrives via ctx-driven abort or a peer failure, either of
// which wakes every blocked primitive).
const (
	dialTimeout  = 10 * time.Second
	helloTimeout = 10 * time.Second
	writeTimeout = 30 * time.Second
	drainTimeout = 30 * time.Second
)

// meshConfig describes one rank's seat in a job's mesh.
type meshConfig struct {
	jobID uint64
	self  int
	p     int
	model comm.CostModel
	addrs []string // addrs[r] = listen address of rank r's process
}

// Comm is the TCP communicator for one job: it hosts exactly one local
// rank engine (self) and reaches the other P-1 over per-peer connections.
// It implements comm.Comm; sampling kernels run on it unchanged.
type Comm struct {
	comm.Engines // the local rank's engine, alone
	eng          *comm.Engine
	cfg          meshConfig

	peers []*peer // peers[r], nil at self
	wg    sync.WaitGroup

	seqOut []int64 // next fData sequence number, by destination (rank goroutine only)
	seqIn  []int64 // next expected fData sequence number, by source (that source's reader only)

	mu         sync.Mutex
	cond       *sync.Cond
	statsIn    []*remoteStats // rank 0: end-of-run accounting, by source
	statsAcked bool           // non-zero ranks: rank 0 confirmed our stats
	statsSent  bool           // non-zero ranks: our kernel is done and the counters shipped

	rankWall, wall float64
}

var _ comm.Comm = (*Comm)(nil)

// newComm forms the mesh for one rank: it dials every lower rank and
// waits for every higher rank to dial in through the intake the acceptor
// routes data connections to. On any failure the partially-formed mesh is
// torn down and an error returned.
func newComm(cfg meshConfig, intake *meshIntake) (*Comm, error) {
	c := &Comm{
		cfg:    cfg,
		peers:  make([]*peer, cfg.p),
		seqOut: make([]int64, cfg.p),
		seqIn:  make([]int64, cfg.p),
	}
	c.cond = sync.NewCond(&c.mu)
	c.eng = comm.NewEngine(cfg.self, cfg.p, cfg.model, link{c})
	c.Engines = comm.Engines{c.eng}
	if cfg.self == 0 {
		c.statsIn = make([]*remoteStats, cfg.p)
	}

	fail := func(err error) (*Comm, error) {
		for _, p := range c.peers {
			if p != nil {
				p.conn.Close() // no writer runs yet to close it
			}
		}
		return nil, err
	}
	for r := 0; r < cfg.self; r++ {
		conn, br, _, err := dialHello(cfg.addrs[r], hello{kind: helloData, jobID: cfg.jobID, fromRank: cfg.self})
		if err != nil {
			return fail(fmt.Errorf("transport: rank %d dialing rank %d: %w", cfg.self, r, err))
		}
		c.peers[r] = newPeer(r, conn, br)
	}
	for r := cfg.self + 1; r < cfg.p; r++ {
		conn, br, err := intake.take(r, time.Now().Add(dialTimeout))
		if err != nil {
			return fail(fmt.Errorf("transport: rank %d waiting for rank %d to connect: %w", cfg.self, r, err))
		}
		c.peers[r] = newPeer(r, conn, br)
	}
	for _, p := range c.peers {
		if p == nil {
			continue
		}
		c.wg.Add(2)
		go func(p *peer) { defer c.wg.Done(); p.writeLoop() }(p)
		go func(p *peer) { defer c.wg.Done(); c.readLoop(p) }(p)
	}
	return c, nil
}

// Run executes fn on the local rank. It returns once fn has finished or
// unwound and — on a clean run — the end-of-run stats exchange completed,
// so rank 0's FillStats sees every remote rank's accounting. The error is
// the first transport failure or abort cause; a clean run returns nil.
func (c *Comm) Run(fn func(r comm.Rank)) error {
	start := time.Now()
	c.eng.Exec(fn)
	c.rankWall = time.Since(start).Seconds()
	if c.eng.Err() == nil {
		if err := c.statsPhase(); err != nil {
			c.eng.Fail(err)
		}
	}
	c.wall = time.Since(start).Seconds()
	return c.eng.Seal() // teardown EOFs from here on are benign
}

// statsPhase runs the end-of-run accounting exchange: every non-zero rank
// ships its counters to rank 0 and waits for the ack; rank 0 waits for all
// counters and acks each sender. The ack doubles as the teardown barrier —
// once it is through, both ends know no more frames are coming.
func (c *Comm) statsPhase() error {
	if c.cfg.p == 1 {
		return nil
	}
	deadline := time.Now().Add(drainTimeout)
	if c.cfg.self != 0 {
		rf := rankFrame{typ: fStats, from: c.cfg.self, stats: remoteStats{
			ops: c.eng.Ops(), clock: c.eng.Clock(), wall: c.rankWall,
			msgs: c.Messages(), bytes: c.Bytes(), collMsgs: c.CollMessages(), collBytes: c.CollBytes(),
		}}
		body, err := rf.encode()
		if err != nil {
			return err
		}
		// Flag the teardown before the stats frame can reach rank 0: once
		// it does, any peer may receive its ack and hang up, and that EOF
		// must already read as benign here.
		c.mu.Lock()
		c.statsSent = true
		c.mu.Unlock()
		if err := c.post(0, fStats, body); err != nil {
			return err
		}
		return c.wait(func() bool { return c.statsAcked }, deadline, "stats ack from rank 0")
	}
	err := c.wait(func() bool {
		for r := 1; r < c.cfg.p; r++ {
			if c.statsIn[r] == nil {
				return false
			}
		}
		return true
	}, deadline, "end-of-run stats from all ranks")
	if err != nil {
		return err
	}
	// The run is complete from this rank's point of view: seal it BEFORE
	// posting the acks, so a peer that receives its ack and closes cannot
	// race an EOF into the reader and retroactively fail a clean run.
	c.eng.Seal()
	for r := 1; r < c.cfg.p; r++ {
		if err := c.post(r, fStatsAck, nil); err != nil {
			return err
		}
	}
	return nil
}

// wait blocks under mu until pred holds, the run fails, or the deadline
// passes.
func (c *Comm) wait(pred func() bool, deadline time.Time, what string) error {
	timer := time.AfterFunc(time.Until(deadline), func() {
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	})
	defer timer.Stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for !pred() {
		if err := c.eng.Err(); err != nil {
			return err
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("transport: rank %d timed out waiting for %s", c.cfg.self, what)
		}
		c.cond.Wait()
	}
	return nil
}

// Close tears the mesh down and joins the per-peer goroutines. It must be
// called after Run (the Cluster and Worker job paths defer it); calling it
// on an unsealed run fails that run first.
func (c *Comm) Close() {
	for _, p := range c.peers {
		if p != nil {
			p.close()
		}
	}
	c.wg.Wait()
}

// FillStats copies the run's accounting into s. On rank 0 after a clean
// Run the per-rank vectors and counter totals cover the whole job (the
// stats exchange gathered every remote rank's accounting); on other ranks
// only the local rank's column is meaningful.
func (c *Comm) FillStats(s *comm.RunStats) {
	c.Engines.FillStats(s)
	s.RankWallSeconds[c.cfg.self] = c.rankWall
	c.mu.Lock()
	for r, st := range c.statsIn {
		if st == nil {
			continue
		}
		s.RankOps[r] = st.ops
		s.RankSeconds[r] = st.clock
		s.RankWallSeconds[r] = st.wall
		s.Messages += st.msgs
		s.Bytes += st.bytes
		s.CollMessages += st.collMsgs
		s.CollBytes += st.collBytes
	}
	c.mu.Unlock()
	s.WallSeconds = c.wall
	s.Measured = true
}

// post enqueues one frame to rank `to`, evaluating the transport.send
// failpoints on the way (the fault drill's "kill a worker mid-send" hook
// covers every data-bearing frame: point-to-point, deposit, and stats).
func (c *Comm) post(to int, typ byte, body []byte) error {
	if err := faultinject.Eval("transport.send"); err != nil {
		return fmt.Errorf("transport: rank %d send to %d: %w", c.cfg.self, to, err)
	}
	if err := faultinject.Eval(fmt.Sprintf("transport.send.rank%d", c.cfg.self)); err != nil {
		return fmt.Errorf("transport: rank %d send to %d: %w", c.cfg.self, to, err)
	}
	p := c.peers[to]
	if p == nil {
		return fmt.Errorf("transport: rank %d has no connection to rank %d", c.cfg.self, to)
	}
	if !p.enqueue(typ, body) {
		return fmt.Errorf("transport: rank %d connection to rank %d is closed", c.cfg.self, to)
	}
	return nil
}

// link is the local engine's comm.Link: it encodes engine frames onto the
// wire (readLoop decodes the peers' frames back into the engine).
type link struct{ c *Comm }

// Post encodes f as an fData or fColl frame and queues it.
func (l link) Post(to int, f *comm.Frame) error {
	c := l.c
	rf := rankFrame{typ: fColl, from: f.From, frame: *f}
	if f.Kind == comm.FrameData {
		rf.typ, rf.seq = fData, c.seqOut[to]
		c.seqOut[to]++
	}
	body, err := rf.encode()
	if err != nil {
		return fmt.Errorf("transport: rank %d: %w", c.cfg.self, err)
	}
	return c.post(to, rf.typ, body)
}

// Fail wakes a stats-phase wait and fans the failure out to the peers as
// best-effort fAbort frames; each writer flushes what is queued, then
// closes its connection.
func (l link) Fail(err error) {
	c := l.c
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
	var e wenc
	e.str(err.Error())
	for _, p := range c.peers {
		if p != nil {
			p.enqueue(fAbort, e.buf)
			p.close()
		}
	}
}

// readLoop drains one peer connection, dispatching frames into the engine
// and the stats state. Any read or protocol error fails the run; after a
// sealed run the teardown EOF is benign (Fail ignores it), as is a
// non-zero peer hanging up once this rank has shipped its stats — that
// peer got its ack and closed first, and only rank 0's channel still
// matters while we wait for ours.
func (c *Comm) readLoop(p *peer) {
	for {
		typ, body, err := readFrame(p.br)
		if err != nil {
			if p.rank != 0 && c.inTeardown() {
				return
			}
			c.eng.Fail(fmt.Errorf("transport: rank %d lost rank %d: %w", c.cfg.self, p.rank, err))
			return
		}
		if err := c.dispatch(p, typ, body); err != nil {
			c.eng.Fail(err)
			return
		}
	}
}

// inTeardown reports whether this rank has finished its kernel and is only
// waiting on rank 0's stats ack — the window in which a faster peer's
// hangup is expected, not a failure.
func (c *Comm) inTeardown() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.statsSent
}

// dispatch handles one frame from peer p: rank frames are decoded by
// decodeRankFrame and checked against the connection's sender — data and
// deposits then go to the engine (data after the sequence check), stats to
// the stats phase.
func (c *Comm) dispatch(p *peer, typ byte, body []byte) error {
	switch typ {
	case fData, fColl, fStats:
		rf, err := decodeRankFrame(typ, body, c.cfg.p)
		if err != nil {
			return fmt.Errorf("transport: bad frame (type %d) from rank %d: %w", typ, p.rank, err)
		}
		if rf.from != p.rank {
			return fmt.Errorf("transport: rank %d sent a frame claiming rank %d", p.rank, rf.from)
		}
		switch typ {
		case fData:
			if want := c.seqIn[rf.from]; rf.seq != want {
				return fmt.Errorf("transport: rank %d message sequence %d, want %d", rf.from, rf.seq, want)
			}
			c.seqIn[rf.from]++
		case fStats:
			if c.cfg.self != 0 {
				return fmt.Errorf("transport: unexpected stats from rank %d at rank %d", rf.from, c.cfg.self)
			}
			c.mu.Lock()
			c.statsIn[rf.from] = &rf.stats
			c.cond.Broadcast()
			c.mu.Unlock()
			return nil
		}
		return c.eng.Deliver(&rf.frame)

	case fStatsAck:
		if err := (&wdec{buf: body}).finish(); err != nil || p.rank != 0 {
			return fmt.Errorf("transport: unexpected stats ack from rank %d", p.rank)
		}
		// The ack is the last frame of the run; sealing here — in the
		// reader, before the next readFrame — means the teardown EOF that
		// follows on this stream can never race in as a failure.
		c.eng.Seal()
		c.mu.Lock()
		c.statsAcked = true
		c.cond.Broadcast()
		c.mu.Unlock()
		return nil

	case fAbort:
		d := wdec{buf: body}
		return fmt.Errorf("transport: rank %d aborted the run: %s", p.rank, d.str())
	}
	return fmt.Errorf("transport: unexpected frame type %d from rank %d", typ, p.rank)
}

// ----------------------------------------------------------------- peers

// peer is one rank-to-rank connection: an unbounded outbound frame queue
// drained by a writer goroutine (so a send never blocks) plus the
// buffered reader its readLoop consumes.
type peer struct {
	rank int
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []outFrame
	closed bool
}

type outFrame struct {
	typ  byte
	body []byte
}

func newPeer(rank int, conn net.Conn, br *bufio.Reader) *peer {
	p := &peer{rank: rank, conn: conn, br: br, bw: bufio.NewWriter(conn)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// enqueue posts a frame for the writer goroutine; it never blocks.
// Returns false when the connection is already closed.
func (p *peer) enqueue(typ byte, body []byte) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	p.queue = append(p.queue, outFrame{typ: typ, body: body})
	p.cond.Signal()
	return true
}

// writeLoop drains the queue. It is the only closer of the connection: it
// closes once the peer is closed and every queued frame — including one it
// has already dequeued — is flushed, or at the first write failure (the
// reader then observes the broken connection). Each frame write carries a
// deadline, so a stalled peer cannot hold the connection open forever.
func (p *peer) writeLoop() {
	defer p.conn.Close()
	for {
		p.mu.Lock()
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return // closed and flushed
		}
		f := p.queue[0]
		p.queue[0] = outFrame{}
		p.queue = p.queue[1:]
		if len(p.queue) == 0 {
			p.queue = nil
		}
		p.mu.Unlock()
		p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := writeFrame(p.bw, f.typ, f.body); err != nil {
			p.mu.Lock()
			p.closed = true
			p.queue = nil
			p.mu.Unlock()
			return
		}
	}
}

// close refuses further frames; the writer flushes what is queued, then
// closes the connection (unblocking the reader).
func (p *peer) close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}
