package transport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"time"
)

// meshIntake collects the inbound data connections of one job: the
// listener's accept path deposits each dialing rank's connection here,
// and the job's newComm takes them as it forms its mesh. Registered in a
// meshRegistry before any peer can possibly dial (the coordinator
// registers before shipping setups; a worker registers before acking its
// setup), so a data hello never races its job.
type meshIntake struct {
	mu     sync.Mutex
	cond   *sync.Cond
	conns  map[int]intakeConn // by dialing rank
	closed bool
}

type intakeConn struct {
	conn net.Conn
	br   *bufio.Reader
}

func newMeshIntake() *meshIntake {
	in := &meshIntake{conns: make(map[int]intakeConn)}
	in.cond = sync.NewCond(&in.mu)
	return in
}

// deposit hands an accepted data connection to the waiting job. Returns
// false when the intake is already closed (late dial after teardown).
func (in *meshIntake) deposit(rank int, conn net.Conn, br *bufio.Reader) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.closed {
		return false
	}
	if _, dup := in.conns[rank]; dup {
		return false
	}
	in.conns[rank] = intakeConn{conn: conn, br: br}
	in.cond.Broadcast()
	return true
}

// take waits until rank's connection has been deposited or the deadline
// passes.
func (in *meshIntake) take(rank int, deadline time.Time) (net.Conn, *bufio.Reader, error) {
	timer := time.AfterFunc(time.Until(deadline), func() {
		in.mu.Lock()
		in.cond.Broadcast()
		in.mu.Unlock()
	})
	defer timer.Stop()
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if ic, ok := in.conns[rank]; ok {
			delete(in.conns, rank)
			return ic.conn, ic.br, nil
		}
		if in.closed {
			return nil, nil, fmt.Errorf("transport: mesh intake closed")
		}
		if !time.Now().Before(deadline) {
			return nil, nil, fmt.Errorf("transport: timed out")
		}
		in.cond.Wait()
	}
}

// close refuses further deposits and drops any unclaimed connections.
func (in *meshIntake) close() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.closed = true
	for r, ic := range in.conns {
		ic.conn.Close()
		delete(in.conns, r)
	}
	in.cond.Broadcast()
}

// meshRegistry routes inbound data hellos to the job they belong to.
type meshRegistry struct {
	mu      sync.Mutex
	intakes map[uint64]*meshIntake // by job id
}

func newMeshRegistry() *meshRegistry {
	return &meshRegistry{intakes: make(map[uint64]*meshIntake)}
}

func (mr *meshRegistry) register(jobID uint64) *meshIntake {
	in := newMeshIntake()
	mr.mu.Lock()
	mr.intakes[jobID] = in
	mr.mu.Unlock()
	return in
}

func (mr *meshRegistry) unregister(jobID uint64) {
	mr.mu.Lock()
	in := mr.intakes[jobID]
	delete(mr.intakes, jobID)
	mr.mu.Unlock()
	if in != nil {
		in.close()
	}
}

func (mr *meshRegistry) lookup(jobID uint64) *meshIntake {
	mr.mu.Lock()
	defer mr.mu.Unlock()
	return mr.intakes[jobID]
}

// acceptHello performs the server side of the hello exchange on a fresh
// connection: it validates the protocol version, acks, and returns the
// kind, job id and dialing rank. The caller owns the connection.
func acceptHello(conn net.Conn) (kind byte, jobID uint64, fromRank int, br *bufio.Reader, err error) {
	conn.SetDeadline(time.Now().Add(helloTimeout))
	br = bufio.NewReader(conn)
	typ, body, err := readFrame(br)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if typ != fHello {
		return 0, 0, 0, nil, fmt.Errorf("transport: expected hello, got frame type %d", typ)
	}
	h, err := decodeHello(body)
	if err != nil {
		return 0, 0, 0, nil, err
	}
	if err := writeFrame(bufio.NewWriter(conn), fHelloAck, encodeHelloAck()); err != nil {
		return 0, 0, 0, nil, err
	}
	conn.SetDeadline(time.Time{})
	return h.kind, h.jobID, h.fromRank, br, nil
}

// dialHello opens a connection to addr and performs the dialing side of
// the hello exchange: it sends h and checks the acceptor's ack. The caller
// owns the returned connection and its buffered reader and writer.
func dialHello(addr string, h hello) (net.Conn, *bufio.Reader, *bufio.Writer, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, nil, nil, err
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		tc.SetKeepAlive(true)
	}
	fail := func(err error) (net.Conn, *bufio.Reader, *bufio.Writer, error) {
		conn.Close()
		return nil, nil, nil, err
	}
	conn.SetDeadline(time.Now().Add(helloTimeout))
	bw, br := bufio.NewWriter(conn), bufio.NewReader(conn)
	if err := writeFrame(bw, fHello, encodeHello(h)); err != nil {
		return fail(err)
	}
	typ, body, err := readFrame(br)
	if err != nil {
		return fail(err)
	}
	if typ != fHelloAck {
		return fail(fmt.Errorf("transport: expected hello ack, got frame type %d", typ))
	}
	if err := decodeHelloAck(body); err != nil {
		return fail(err)
	}
	conn.SetDeadline(time.Time{})
	return conn, br, bw, nil
}
