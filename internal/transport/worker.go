package transport

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"parsample/internal/comm"
	"parsample/internal/sampling"
)

// Worker hosts the non-zero ranks of distributed sampling jobs: one
// Worker process is one seat in the cluster. It listens on a single TCP
// address for both control connections (a coordinator shipping job
// setups) and data connections (peer ranks forming a job's mesh), runs
// each job's rank through the same sampling kernels the simulator drives,
// and reports the outcome back over the control connection.
type Worker struct {
	ln       net.Listener
	registry *meshRegistry

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	stats workerCounters
}

// workerCounters are the /statsz-style counters a worker exports.
type workerCounters struct {
	jobsStarted   atomic.Int64
	jobsCompleted atomic.Int64
	jobsFailed    atomic.Int64
	activeJobs    atomic.Int64
	messages      atomic.Int64
	bytes         atomic.Int64
	collMessages  atomic.Int64
	collBytes     atomic.Int64
}

// WorkerStats is a point-in-time snapshot of a worker's counters,
// JSON-shaped for a /statsz endpoint.
type WorkerStats struct {
	JobsStarted   int64 `json:"jobs_started"`
	JobsCompleted int64 `json:"jobs_completed"`
	JobsFailed    int64 `json:"jobs_failed"`
	ActiveJobs    int64 `json:"active_jobs"`
	Messages      int64 `json:"messages"`
	Bytes         int64 `json:"bytes"`
	CollMessages  int64 `json:"coll_messages"`
	CollBytes     int64 `json:"coll_bytes"`
}

// NewWorker starts listening on addr (e.g. "127.0.0.1:0"); Serve must be
// called to accept work.
func NewWorker(addr string) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: worker listen: %w", err)
	}
	return &Worker{
		ln:       ln,
		registry: newMeshRegistry(),
		conns:    make(map[net.Conn]struct{}),
	}, nil
}

// Addr returns the worker's listen address.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Stats returns a snapshot of the worker's counters.
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		JobsStarted:   w.stats.jobsStarted.Load(),
		JobsCompleted: w.stats.jobsCompleted.Load(),
		JobsFailed:    w.stats.jobsFailed.Load(),
		ActiveJobs:    w.stats.activeJobs.Load(),
		Messages:      w.stats.messages.Load(),
		Bytes:         w.stats.bytes.Load(),
		CollMessages:  w.stats.collMessages.Load(),
		CollBytes:     w.stats.collBytes.Load(),
	}
}

// Serve accepts connections until ctx is cancelled or Close is called,
// then drains: in-flight jobs are aborted through ctx (their coordinators
// get a structured failure, not a hang), every tracked connection is
// closed, and all handler goroutines are joined before Serve returns.
func (w *Worker) Serve(ctx context.Context) error {
	stop := context.AfterFunc(ctx, func() { w.ln.Close() })
	defer stop()
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			w.drain()
			if ctx.Err() != nil || w.isClosed() {
				return nil // clean shutdown
			}
			return fmt.Errorf("transport: worker accept: %w", err)
		}
		if !w.track(conn) {
			conn.Close()
			continue
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.handleConn(ctx, conn)
		}()
	}
}

// Close stops the worker: the listener closes, Serve drains and returns.
func (w *Worker) Close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.ln.Close()
}

func (w *Worker) isClosed() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.closed
}

func (w *Worker) track(conn net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.conns[conn] = struct{}{}
	return true
}

// forget removes a connection from the tracked set without closing it —
// used when ownership moves to a job's mesh (whose comm closes it, with
// shutdown reaching it through ctx-driven abort instead of drain).
func (w *Worker) forget(conn net.Conn) {
	w.mu.Lock()
	delete(w.conns, conn)
	w.mu.Unlock()
}

// untrack removes and closes a connection.
func (w *Worker) untrack(conn net.Conn) {
	w.forget(conn)
	conn.Close()
}

// drain closes every tracked connection (waking blocked handlers) and
// joins the handler goroutines.
func (w *Worker) drain() {
	w.mu.Lock()
	w.closed = true
	for conn := range w.conns {
		conn.Close()
	}
	w.mu.Unlock()
	w.wg.Wait()
}

// handleConn dispatches one accepted connection by its hello kind: data
// connections are deposited into the owning job's mesh intake (the job's
// comm takes over the connection), control connections enter the
// setup/run/done loop.
func (w *Worker) handleConn(ctx context.Context, conn net.Conn) {
	kind, jobID, fromRank, br, err := acceptHello(conn)
	if err != nil {
		w.untrack(conn)
		return
	}
	switch kind {
	case helloData:
		in := w.registry.lookup(jobID)
		w.forget(conn) // ownership moves to the intake / the job's comm
		if in == nil || !in.deposit(fromRank, conn, br) {
			conn.Close() // unknown or finished job
		}
	case helloControl:
		defer w.untrack(conn)
		w.controlLoop(ctx, conn, br)
	default:
		w.untrack(conn)
	}
}

// controlLoop serves one coordinator: each fSetup runs one job rank to
// completion (jobs on one control connection are sequential, matching
// the coordinator's synchronous Run calls) and answers with fDone.
func (w *Worker) controlLoop(ctx context.Context, conn net.Conn, br *bufio.Reader) {
	bw := bufio.NewWriter(conn)
	writeControl := func(typ byte, body []byte) error {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		defer conn.SetWriteDeadline(time.Time{})
		return writeFrame(bw, typ, body)
	}
	for {
		typ, body, err := readFrame(br)
		if err != nil {
			return // coordinator went away (or shutdown closed the conn)
		}
		if typ != fSetup {
			return
		}
		js, err := decodeJobSpec(body)
		if err != nil {
			return
		}
		in := w.registry.register(js.jobID)
		if err := writeControl(fSetupAck, nil); err != nil {
			w.registry.unregister(js.jobID)
			return
		}
		runErr := w.runJob(ctx, js, in)
		w.registry.unregister(js.jobID)
		var e wenc
		e.u64(js.jobID)
		if runErr != nil {
			e.u8(0)
			e.str(runErr.Error())
		} else {
			e.u8(1)
			e.str("")
		}
		if err := writeControl(fDone, e.buf); err != nil {
			return
		}
	}
}

// runJob executes one rank of one sampling job: decode the shard, form
// the mesh, run the kernel on the local rank (the gathered result lands
// on rank 0 — the coordinator — so the worker's own Result is discarded),
// and fold the communicator's traffic into the worker counters.
func (w *Worker) runJob(ctx context.Context, js *jobSpec, in *meshIntake) (err error) {
	w.stats.jobsStarted.Add(1)
	w.stats.activeJobs.Add(1)
	defer func() {
		w.stats.activeJobs.Add(-1)
		if err != nil {
			w.stats.jobsFailed.Add(1)
		} else {
			w.stats.jobsCompleted.Add(1)
		}
	}()
	defer func() {
		if e := recover(); e != nil {
			err = fmt.Errorf("transport: job %d rank %d panicked: %v", js.jobID, js.rank, e)
		}
	}()
	shard, err := js.decodeShard()
	if err != nil {
		return err
	}
	c, err := newComm(meshConfig{
		jobID: js.jobID,
		self:  js.rank,
		p:     js.p,
		model: js.model,
		addrs: js.addrs,
	}, in)
	if err != nil {
		return err
	}
	defer func() {
		w.stats.messages.Add(c.Messages())
		w.stats.bytes.Add(c.Bytes())
		w.stats.collMessages.Add(c.CollMessages())
		w.stats.collBytes.Add(c.CollBytes())
		c.Close()
	}()
	model := js.model
	_, err = sampling.RunContext(ctx, js.alg, shard, sampling.Options{
		Order: js.order,
		P:     js.p,
		Seed:  js.seed,
		Model: &model,
		Comm:  c,
	})
	if err != nil && errors.Is(err, comm.ErrAborted) && ctx.Err() != nil {
		err = fmt.Errorf("transport: worker shutting down: %w", ctx.Err())
	}
	return err
}
