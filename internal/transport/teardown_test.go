package transport

import (
	"bufio"
	"context"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"parsample/internal/graph"
	"parsample/internal/sampling"
)

// gatedConn holds its first Write until released and records whether the
// connection was closed while that write was in flight.
type gatedConn struct {
	net.Conn
	inWrite, release chan struct{}
	once             sync.Once

	mu                      sync.Mutex
	writing, closedMidWrite bool
}

func (g *gatedConn) Write(b []byte) (int, error) {
	first := false
	g.once.Do(func() { first = true })
	if first {
		g.setWriting(true)
		close(g.inWrite)
		<-g.release
		g.setWriting(false)
	}
	return g.Conn.Write(b)
}

func (g *gatedConn) setWriting(v bool) {
	g.mu.Lock()
	g.writing = v
	g.mu.Unlock()
}

func (g *gatedConn) Close() error {
	g.mu.Lock()
	if g.writing {
		g.closedMidWrite = true
	}
	g.mu.Unlock()
	return g.Conn.Close()
}

// TestPeerCloseFlushesInFlightFrame pins the teardown rule: closing a peer
// while its writer holds a dequeued frame (the queue is already empty)
// must not close the connection under that frame. If it did, rank 0 would
// lose its final fStatsAck this way and rank 1 would fail a clean run with
// "lost rank 0: EOF".
func TestPeerCloseFlushesInFlightFrame(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	g := &gatedConn{Conn: a, inWrite: make(chan struct{}), release: make(chan struct{})}
	p := newPeer(1, g, nil)
	writerDone := make(chan struct{})
	go func() { p.writeLoop(); close(writerDone) }()
	got := make(chan error, 1)
	go func() {
		typ, _, err := readFrame(bufio.NewReader(b))
		if err == nil && typ != fStatsAck {
			err = ErrCorrupt
		}
		got <- err
	}()

	p.enqueue(fStatsAck, nil)
	<-g.inWrite // the writer has dequeued the ack and is writing it
	p.close()
	close(g.release)
	if err := <-got; err != nil {
		t.Fatalf("peer read %v instead of the final frame", err)
	}
	<-writerDone
	if g.closedMidWrite {
		t.Fatal("connection closed while the writer still held a frame")
	}
}

// TestTeardownUnderContention drives the same race end to end: at least
// 400 sequential P=2 jobs, each ending in the stats/ack teardown, while
// two CPU-bound goroutines compete for the processors. GOMAXPROCS is
// raised above the CPU count so the spinners contend at the OS level, as
// neighbouring processes do, instead of starving the job of Ps. Graph
// sizes alternate so rank 0's time from ack to hangup straddles the
// writer's wake-up latency.
func TestTeardownUnderContention(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 2))
	graphs := []*graph.Graph{graph.RMAT(8, 4, 0, 0, 0, 8), graph.RMAT(9, 4, 0, 0, 0, 9)}
	cl, _ := startCluster(t, 1)
	stop := make(chan struct{})
	var spin sync.WaitGroup
	for i := 0; i < 2; i++ {
		spin.Add(1)
		go func() {
			defer spin.Done()
			for x := uint64(1); ; x = x*6364136223846793005 + 1442695040888963407 {
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	defer func() { close(stop); spin.Wait() }()

	const minJobs, maxJobs, budget = 400, 1200, 3 * time.Second
	start := time.Now()
	jobs, failures := 0, 0
	var first error
	for ; jobs < maxJobs && (jobs < minJobs || time.Since(start) < budget); jobs++ {
		job := Job{Alg: sampling.ChordalNoComm, Graph: graphs[jobs%len(graphs)], P: 2, Seed: int64(jobs)}
		if _, err := cl.Run(context.Background(), job); err != nil {
			failures++
			if first == nil {
				first = err
			}
		}
	}
	if failures > 0 {
		t.Fatalf("%d of %d clean P=2 jobs failed; first: %v", failures, jobs, first)
	}
	t.Logf("%d jobs in %v", jobs, time.Since(start))
}
