package transport

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"parsample/internal/comm"
	"parsample/internal/graph"
	"parsample/internal/sampling"
)

// Cluster is the coordinator's handle on a set of worker processes: it
// holds one control connection per worker plus a data listener on which
// workers dial in as mesh peers (the coordinator itself is rank 0 of
// every job). Jobs run sequentially through Run; the Cluster is not safe
// for concurrent Run calls.
type Cluster struct {
	ln       net.Listener
	registry *meshRegistry
	workers  []*workerConn
	nextJob  uint64
	wg       sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

// workerConn is one worker's control channel.
type workerConn struct {
	addr string
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	dead error // first control-channel failure; the seat is unusable after
}

// Dial connects to the given workers (their Worker listen addresses) and
// starts the coordinator's data listener on listenAddr (e.g.
// "127.0.0.1:0"). The returned Cluster supports jobs with P up to
// len(workerAddrs)+1.
func Dial(listenAddr string, workerAddrs []string) (*Cluster, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: coordinator listen: %w", err)
	}
	cl := &Cluster{ln: ln, registry: newMeshRegistry()}
	cl.wg.Add(1)
	go cl.acceptLoop()
	for i, addr := range workerAddrs {
		conn, br, bw, err := dialHello(addr, hello{kind: helloControl})
		if err != nil {
			cl.Close()
			return nil, fmt.Errorf("transport: dialing worker %d at %s: %w", i, addr, err)
		}
		cl.workers = append(cl.workers, &workerConn{addr: addr, conn: conn, br: br, bw: bw})
	}
	return cl, nil
}

// acceptLoop takes the workers' inbound mesh connections and routes them
// to the owning job's intake.
func (cl *Cluster) acceptLoop() {
	defer cl.wg.Done()
	for {
		conn, err := cl.ln.Accept()
		if err != nil {
			return
		}
		go func() {
			kind, jobID, fromRank, br, err := acceptHello(conn)
			if err != nil || kind != helloData {
				conn.Close()
				return
			}
			in := cl.registry.lookup(jobID)
			if in == nil || !in.deposit(fromRank, conn, br) {
				conn.Close()
			}
		}()
	}
}

// Workers returns the number of connected workers.
func (cl *Cluster) Workers() int { return len(cl.workers) }

// Addr returns the coordinator's data listen address (rank 0's seat).
func (cl *Cluster) Addr() string { return cl.ln.Addr().String() }

// Close tears the cluster down: control connections and the data listener
// close; workers stay alive (they only lose this coordinator).
func (cl *Cluster) Close() {
	cl.mu.Lock()
	if cl.closed {
		cl.mu.Unlock()
		return
	}
	cl.closed = true
	cl.mu.Unlock()
	for _, wc := range cl.workers {
		wc.conn.Close()
	}
	cl.ln.Close()
	cl.wg.Wait()
}

// Job describes one distributed sampling run.
type Job struct {
	Alg   sampling.Algorithm
	Graph *graph.Graph
	Order []int32 // nil = natural order
	P     int     // ranks; P-1 workers are enlisted (P=1 runs locally)
	Seed  int64
	Model *comm.CostModel // nil = comm.DefaultCostModel
}

// Run executes one distributed sampling job: it partitions the graph,
// ships each enlisted worker its rank's shard, forms the P-rank TCP mesh
// with itself as rank 0, and runs the same sampling kernel every rank
// runs — the Gatherv root and the sequential merge land here, so the
// returned Result (byte-identical to the simulator's on the same seed
// and order) carries the full per-rank accounting plus measured wall
// clocks. A failed or cancelled run returns a structured error once the
// participating workers have reported back (or their deadline passed);
// surviving workers remain usable for the next job.
func (cl *Cluster) Run(ctx context.Context, job Job) (*sampling.Result, error) {
	model := comm.DefaultCostModel()
	if job.Model != nil {
		model = *job.Model
	}
	order := job.Order
	if order == nil {
		order = graph.NaturalOrder(job.Graph.N())
	}
	if job.P < 1 {
		job.P = 1
	}
	opts := sampling.Options{Order: order, P: job.P, Seed: job.Seed, Model: &model}
	if job.P == 1 {
		// A one-rank job has no mesh: it runs right here, but it runs for
		// real, so stamp the measured wall clock the same way a TCP run
		// would — Run's contract is that its Stats are measurements.
		start := time.Now()
		res, err := sampling.RunContext(ctx, job.Alg, job.Graph, opts)
		if res != nil {
			res.Stats.WallSeconds = time.Since(start).Seconds()
			res.Stats.Measured = true
		}
		return res, err
	}
	if job.P-1 > len(cl.workers) {
		return nil, fmt.Errorf("transport: job wants %d ranks but the cluster has %d workers", job.P, len(cl.workers))
	}
	pt := graph.BlockPartition(order, job.P)
	if pt.P() != job.P {
		return nil, fmt.Errorf("transport: graph with %d vertices cannot host %d ranks", job.Graph.N(), job.P)
	}

	cl.nextJob++
	jobID := cl.nextJob
	addrs := make([]string, job.P)
	addrs[0] = cl.Addr()
	for r := 1; r < job.P; r++ {
		addrs[r] = cl.workers[r-1].addr
	}

	// Register the mesh intake before any worker can dial, then ship the
	// setups sequentially, each acknowledged before the next goes out —
	// the ack means worker r has registered its own intake, so a
	// higher-ranked worker that dials it cannot race the job.
	in := cl.registry.register(jobID)
	defer cl.registry.unregister(jobID)
	enlisted := make([]*workerConn, 0, job.P-1)
	for r := 1; r < job.P; r++ {
		wc := cl.workers[r-1]
		if wc.dead != nil {
			return nil, fmt.Errorf("transport: worker %d (%s) is unusable: %w", r-1, wc.addr, wc.dead)
		}
		spec := &jobSpec{
			jobID: jobID,
			rank:  r,
			p:     job.P,
			model: model,
			alg:   job.Alg,
			seed:  job.Seed,
			order: order,
			addrs: addrs,
			shard: encodeShard(job.Graph, pt, r),
		}
		if err := wc.roundTrip(fSetup, encodeJobSpec(spec), fSetupAck); err != nil {
			wc.dead = err
			cl.drainDone(enlisted) // earlier workers already hold the job; let them fail it out
			return nil, fmt.Errorf("transport: setting up rank %d on worker %s: %w", r, wc.addr, err)
		}
		enlisted = append(enlisted, wc)
	}

	c, err := newComm(meshConfig{jobID: jobID, self: 0, p: job.P, model: model, addrs: addrs}, in)
	if err != nil {
		cl.drainDone(enlisted)
		return nil, err
	}
	opts.Comm = c
	res, runErr := sampling.RunContext(ctx, job.Alg, job.Graph, opts)
	c.Close()

	// Collect every enlisted worker's fDone so the control channels are in
	// sync for the next job; a worker-reported failure on a run the
	// coordinator thought clean is still a failure.
	doneErr := cl.drainDone(enlisted)
	if runErr != nil {
		return nil, runErr
	}
	if doneErr != nil {
		return nil, doneErr
	}
	return res, nil
}

// drainDone reads the end-of-job report from each enlisted worker,
// returning the first failure (a worker-reported job error or a dead
// control channel).
func (cl *Cluster) drainDone(enlisted []*workerConn) error {
	var firstErr error
	for _, wc := range enlisted {
		ok, msg, err := wc.readDone()
		if err != nil {
			wc.dead = err
			if firstErr == nil {
				firstErr = fmt.Errorf("transport: worker %s control channel: %w", wc.addr, err)
			}
			continue
		}
		if !ok && firstErr == nil {
			firstErr = fmt.Errorf("transport: worker %s: %s", wc.addr, msg)
		}
	}
	return firstErr
}

// roundTrip writes one control frame and waits for the expected reply
// type, both under deadlines.
func (wc *workerConn) roundTrip(reqType byte, body []byte, wantType byte) error {
	wc.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	err := writeFrame(wc.bw, reqType, body)
	wc.conn.SetWriteDeadline(time.Time{})
	if err != nil {
		return err
	}
	wc.conn.SetReadDeadline(time.Now().Add(dialTimeout))
	typ, resp, err := readFrame(wc.br)
	wc.conn.SetReadDeadline(time.Time{})
	if err != nil {
		return err
	}
	if typ != wantType {
		return fmt.Errorf("transport: expected frame type %d, got %d", wantType, typ)
	}
	d := wdec{buf: resp}
	return d.finish()
}

// readDone reads one fDone report under a deadline.
func (wc *workerConn) readDone() (ok bool, msg string, err error) {
	wc.conn.SetReadDeadline(time.Now().Add(drainTimeout))
	typ, body, err := readFrame(wc.br)
	wc.conn.SetReadDeadline(time.Time{})
	if err != nil {
		return false, "", err
	}
	if typ != fDone {
		return false, "", fmt.Errorf("transport: expected done frame, got type %d", typ)
	}
	d := wdec{buf: body}
	d.u64() // job id
	okb := d.u8()
	msg = d.str()
	if err := d.finish(); err != nil {
		return false, "", err
	}
	return okb == 1, msg, nil
}
