package transport

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"parsample/internal/comm"
	"parsample/internal/faultinject"
	"parsample/internal/graph"
	"parsample/internal/mpisim"
	"parsample/internal/sampling"
)

// TestMain asserts that the package leaks no goroutines: a transport bug
// that leaves a reader, writer, or rank blocked after a run fails the
// suite fast instead of hanging CI. A fuzzing run (-fuzz) is exempt: the
// fuzzing engine keeps its own signal-handling goroutine alive.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	faultinject.Reset()
	if code == 0 && flag.Lookup("test.fuzz").Value.String() == "" {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "transport: %d goroutines leaked (baseline %d):\n%s\n", n-base, base, buf)
			code = 1
		}
	}
	os.Exit(code)
}

// makeMesh forms a P-rank loopback mesh entirely in-process: one
// listener, registry and Comm per rank, exactly the topology real worker
// processes form — only the process boundary is missing.
func makeMesh(t *testing.T, p int, model comm.CostModel) []*Comm {
	t.Helper()
	const jobID = 1
	lns := make([]net.Listener, p)
	regs := make([]*meshRegistry, p)
	intakes := make([]*meshIntake, p)
	addrs := make([]string, p)
	for i := 0; i < p; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		regs[i] = newMeshRegistry()
		intakes[i] = regs[i].register(jobID)
		addrs[i] = ln.Addr().String()
	}
	var acceptWG sync.WaitGroup
	for i := 0; i < p; i++ {
		acceptWG.Add(1)
		go func(i int) {
			defer acceptWG.Done()
			for {
				conn, err := lns[i].Accept()
				if err != nil {
					return
				}
				go func() {
					kind, jid, from, br, err := acceptHello(conn)
					if err != nil || kind != helloData {
						conn.Close()
						return
					}
					in := regs[i].lookup(jid)
					if in == nil || !in.deposit(from, conn, br) {
						conn.Close()
					}
				}()
			}
		}(i)
	}
	comms := make([]*Comm, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			comms[i], errs[i] = newComm(meshConfig{jobID: jobID, self: i, p: p, model: model, addrs: addrs}, intakes[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("rank %d mesh formation: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, c := range comms {
			c.eng.Seal()
			c.Close()
		}
		for i, ln := range lns {
			ln.Close()
			regs[i].unregister(jobID)
		}
		acceptWG.Wait()
	})
	return comms
}

// runMesh drives fn on every rank of the mesh concurrently (each Comm
// hosts one rank) and returns the per-rank Run errors.
func runMesh(comms []*Comm, fn func(r comm.Rank)) []error {
	errs := make([]error, len(comms))
	var wg sync.WaitGroup
	for i, c := range comms {
		wg.Add(1)
		go func(i int, c *Comm) {
			defer wg.Done()
			errs[i] = c.Run(fn)
		}(i, c)
	}
	wg.Wait()
	return errs
}

// probe is the payload the primitive tests send. The runtime carries only
// payload types with a registered codec, so the test binary registers one
// for probe (under a kind no production package uses).
type probe struct{ Rank, Seq int32 }

func init() {
	comm.RegisterCodec(comm.Codec{
		Kind:  1000,
		Match: func(v any) bool { _, ok := v.(probe); return ok },
		Encode: func(v any) []byte {
			pr := v.(probe)
			return []byte{byte(pr.Rank), byte(pr.Seq)}
		},
		Decode: func(data []byte) (any, error) {
			if len(data) != 2 {
				return nil, fmt.Errorf("probe payload is %d bytes", len(data))
			}
			return probe{Rank: int32(data[0]), Seq: int32(data[1])}, nil
		},
	})
}

// primitiveKernel exercises every Rank primitive and returns a trace of
// payloads, clocks and op counts — any divergence between the simulated
// and TCP backends shows up as a trace diff.
func primitiveKernel(r comm.Rank) []string {
	var tr []string
	id, p := r.ID(), r.P()
	rec := func(ev string, args ...any) {
		tr = append(tr, fmt.Sprintf("%s %v clock=%.17g ops=%d", ev, args, r.Clock(), r.Ops()))
	}
	r.Compute(int64(100 * (id + 1)))

	// Ring exchange: post the send, then receive from the predecessor.
	next, prev := (id+1)%p, (id+p-1)%p
	r.Send(next, probe{int32(id), 0}, 8+id)
	m := r.AnyRecv([]int{prev})
	rec("ring", m.From, m.Payload, m.Bytes, m.Arrive)

	// Fan-in to rank 0 drained by AnyRecv's deterministic delivery rule.
	if id == 0 {
		remaining := make(map[int]int, p-1)
		var sources []int
		for s := 1; s < p; s++ {
			remaining[s] = 2
			sources = append(sources, s)
		}
		for len(sources) > 0 {
			msg := r.AnyRecv(sources)
			rec("anyrecv", msg.From, msg.Payload, msg.Bytes, msg.Arrive)
			remaining[msg.From]--
			if remaining[msg.From] == 0 {
				sources = slices.DeleteFunc(sources, func(s int) bool { return s == msg.From })
			}
		}
	} else {
		r.Send(0, probe{int32(id), 1}, id*16)
		r.Send(0, probe{int32(id), 2}, 3)
	}

	g := r.Gatherv(probe{int32(id), 3}, 8*id)
	rec("gatherv", g)
	return tr
}

func TestPrimitivesMatchSimulator(t *testing.T) {
	const p = 4
	model := comm.DefaultCostModel()

	simTraces := make([][]string, p)
	sim := mpisim.NewCommModel(p, model)
	var mu sync.Mutex
	if err := sim.Run(func(r comm.Rank) {
		tr := primitiveKernel(r)
		mu.Lock()
		simTraces[r.ID()] = tr
		mu.Unlock()
	}); err != nil {
		t.Fatal(err)
	}

	comms := makeMesh(t, p, model)
	tcpTraces := make([][]string, p)
	for i, err := range runMesh(comms, func(r comm.Rank) {
		tr := primitiveKernel(r)
		mu.Lock()
		tcpTraces[r.ID()] = tr
		mu.Unlock()
	}) {
		if err != nil {
			t.Fatalf("rank %d run: %v", i, err)
		}
	}

	for id := 0; id < p; id++ {
		if len(simTraces[id]) != len(tcpTraces[id]) {
			t.Fatalf("rank %d: %d simulated events, %d transported", id, len(simTraces[id]), len(tcpTraces[id]))
		}
		for i := range simTraces[id] {
			if simTraces[id][i] != tcpTraces[id][i] {
				t.Errorf("rank %d event %d:\n  sim: %s\n  tcp: %s", id, i, simTraces[id][i], tcpTraces[id][i])
			}
		}
	}

	// The local traffic counters, summed over the distributed ranks, must
	// equal the simulator's global counters, and rank 0's gathered stats
	// must reproduce the simulator's per-rank vectors exactly.
	var msgs, bytes, collMsgs, collBytes int64
	for _, c := range comms {
		msgs += c.Messages()
		bytes += c.Bytes()
		collMsgs += c.CollMessages()
		collBytes += c.CollBytes()
	}
	if msgs != sim.Messages() || bytes != sim.Bytes() || collMsgs != sim.CollMessages() || collBytes != sim.CollBytes() {
		t.Fatalf("counters: tcp %d/%d/%d/%d, sim %d/%d/%d/%d",
			msgs, bytes, collMsgs, collBytes,
			sim.Messages(), sim.Bytes(), sim.CollMessages(), sim.CollBytes())
	}
	var simStats, tcpStats comm.RunStats
	sim.FillStats(&simStats)
	comms[0].FillStats(&tcpStats)
	if !tcpStats.Measured || simStats.Measured {
		t.Fatal("Measured flag: transport stats must be measured, simulated must not")
	}
	for i := 0; i < p; i++ {
		if simStats.RankOps[i] != tcpStats.RankOps[i] || simStats.RankSeconds[i] != tcpStats.RankSeconds[i] {
			t.Fatalf("rank %d stats: sim ops=%d clock=%g, tcp ops=%d clock=%g",
				i, simStats.RankOps[i], simStats.RankSeconds[i], tcpStats.RankOps[i], tcpStats.RankSeconds[i])
		}
	}
	if tcpStats.Messages != simStats.Messages || tcpStats.Bytes != simStats.Bytes ||
		tcpStats.CollMessages != simStats.CollMessages || tcpStats.CollBytes != simStats.CollBytes {
		t.Fatalf("gathered stats diverge: %+v vs %+v", tcpStats, simStats)
	}
}

// TestGathervRepeatsInOrder: a kernel that gathers several times receives
// every round, in order, on both backends. Contributors do not wait for
// rank 0, and here rank 0 does not start gathering until every
// contributor has posted all its rounds (each one signals afterwards), so
// all deposits are queued when rank 0 takes the first. Rank 0 takes the
// oldest deposit of each source per gather, and the rounds' clocks and
// traffic match the simulator's.
func TestGathervRepeatsInOrder(t *testing.T) {
	const p, rounds = 4, 3
	kernel := func(got [][]any) func(r comm.Rank) {
		return func(r comm.Rank) {
			id := r.ID()
			if id == 0 {
				sources := []int{1, 2, 3}
				for len(sources) > 0 {
					m := r.AnyRecv(sources)
					sources = slices.DeleteFunc(sources, func(s int) bool { return s == m.From })
				}
			}
			for k := 0; k < rounds; k++ {
				r.Compute(int64(10 * (id + k)))
				vals := r.Gatherv(probe{int32(id), int32(k)}, 4*(id+k))
				if id == 0 {
					got[k] = vals
				}
			}
			if id != 0 {
				r.Send(0, probe{int32(id), rounds}, 0)
			}
		}
	}
	check := func(backend string, got [][]any) {
		t.Helper()
		for k, vals := range got {
			if len(vals) != p {
				t.Fatalf("%s round %d: rank 0 gathered %d payloads, want %d", backend, k, len(vals), p)
			}
			for i, v := range vals {
				if want := (probe{int32(i), int32(k)}); v != want {
					t.Fatalf("%s round %d slot %d: got %v, want %v", backend, k, i, v, want)
				}
			}
		}
	}

	model := comm.DefaultCostModel()
	sim := mpisim.NewCommModel(p, model)
	simGot := make([][]any, rounds)
	if err := sim.Run(kernel(simGot)); err != nil {
		t.Fatal(err)
	}
	check("sim", simGot)

	comms := makeMesh(t, p, model)
	tcpGot := make([][]any, rounds)
	for i, err := range runMesh(comms, kernel(tcpGot)) {
		if err != nil {
			t.Fatalf("rank %d run: %v", i, err)
		}
	}
	check("tcp", tcpGot)

	var simStats, tcpStats comm.RunStats
	sim.FillStats(&simStats)
	comms[0].FillStats(&tcpStats)
	if !slices.Equal(simStats.RankSeconds, tcpStats.RankSeconds) ||
		simStats.CollMessages != tcpStats.CollMessages || simStats.CollBytes != tcpStats.CollBytes {
		t.Fatalf("stats diverge: sim clocks %v coll %d/%d, tcp clocks %v coll %d/%d",
			simStats.RankSeconds, simStats.CollMessages, simStats.CollBytes,
			tcpStats.RankSeconds, tcpStats.CollMessages, tcpStats.CollBytes)
	}
	if want := int64(rounds * (p - 1)); simStats.CollMessages != want {
		t.Fatalf("gather messages %d, want %d", simStats.CollMessages, want)
	}
}

// startCluster boots n in-process workers plus a coordinator connected to
// all of them, with cleanup joining every Serve loop (the leak check in
// TestMain sees any straggler).
func startCluster(t *testing.T, n int) (*Cluster, []*Worker) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, n)
	addrs := make([]string, 0, n)
	workers := make([]*Worker, 0, n)
	for i := 0; i < n; i++ {
		w, err := NewWorker("127.0.0.1:0")
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		workers = append(workers, w)
		addrs = append(addrs, w.Addr())
		go func(w *Worker) {
			w.Serve(ctx)
			done <- struct{}{}
		}(w)
	}
	cl, err := Dial("127.0.0.1:0", addrs)
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cl.Close()
		cancel()
		for range workers {
			<-done
		}
	})
	return cl, workers
}

// assertResultsIdentical pins the full determinism contract between a
// simulated and a distributed run: byte-identical edge sets and identical
// modeled accounting (ops, clocks, traffic, restarts, duplicates).
func assertResultsIdentical(t *testing.T, label string, sim, dist *sampling.Result) {
	t.Helper()
	se, de := sim.Subgraph.Edges(), dist.Subgraph.Edges()
	if len(se) != len(de) {
		t.Fatalf("%s: edge count %d simulated, %d distributed", label, len(se), len(de))
	}
	for i := range se {
		if se[i] != de[i] {
			t.Fatalf("%s: edge %d is (%d,%d) simulated, (%d,%d) distributed",
				label, i, se[i].U, se[i].V, de[i].U, de[i].V)
		}
	}
	ss, ds := &sim.Stats, &dist.Stats
	if ss.P != ds.P {
		t.Fatalf("%s: P %d vs %d", label, ss.P, ds.P)
	}
	for i := 0; i < ss.P; i++ {
		if ss.RankOps[i] != ds.RankOps[i] {
			t.Errorf("%s: rank %d ops %d vs %d", label, i, ss.RankOps[i], ds.RankOps[i])
		}
		if ss.RankSeconds[i] != ds.RankSeconds[i] {
			t.Errorf("%s: rank %d clock %.17g vs %.17g", label, i, ss.RankSeconds[i], ds.RankSeconds[i])
		}
	}
	if ss.Messages != ds.Messages || ss.Bytes != ds.Bytes {
		t.Errorf("%s: point-to-point traffic %d/%d vs %d/%d", label, ss.Messages, ss.Bytes, ds.Messages, ds.Bytes)
	}
	if ss.CollMessages != ds.CollMessages || ss.CollBytes != ds.CollBytes {
		t.Errorf("%s: collective traffic %d/%d vs %d/%d", label, ss.CollMessages, ss.CollBytes, ds.CollMessages, ds.CollBytes)
	}
	if ss.SerialOps != ds.SerialOps || ss.Restarts != ds.Restarts {
		t.Errorf("%s: serial/restarts %d/%d vs %d/%d", label, ss.SerialOps, ss.Restarts, ds.SerialOps, ds.Restarts)
	}
	if sim.DuplicateBorderEdges != dist.DuplicateBorderEdges || sim.BorderEdges != dist.BorderEdges {
		t.Errorf("%s: borders %d/%d vs %d/%d", label,
			sim.DuplicateBorderEdges, sim.BorderEdges, dist.DuplicateBorderEdges, dist.BorderEdges)
	}
	if ds.Measured != true || ds.WallSeconds <= 0 {
		t.Errorf("%s: distributed stats not measured (measured=%v wall=%g)", label, ds.Measured, ds.WallSeconds)
	}
	if ss.Measured {
		t.Errorf("%s: simulated stats claim to be measured", label)
	}
}

// TestDistributedMatchesSimulated is the differential test at the heart
// of the tier: all four parallel samplers, at P ∈ {2, 4, 8}, executed
// once on the simulator and once across real worker processes over
// loopback TCP, must produce byte-identical edge sets and identical
// modeled accounting.
func TestDistributedMatchesSimulated(t *testing.T) {
	if testing.Short() {
		t.Skip("distributed differential matrix is not a -short test")
	}
	g := graph.RMAT(10, 8, 0, 0, 0, 1102)
	cl, _ := startCluster(t, 7)
	ctx := context.Background()
	algs := []sampling.Algorithm{
		sampling.ChordalComm, sampling.ChordalNoComm,
		sampling.RandomWalkPar, sampling.ForestFirePar,
	}
	for _, alg := range algs {
		for _, p := range []int{2, 4, 8} {
			label := fmt.Sprintf("%s/P=%d", alg, p)
			sim, err := sampling.Run(alg, g, sampling.Options{P: p, Seed: 20120521})
			if err != nil {
				t.Fatalf("%s simulated: %v", label, err)
			}
			dist, err := cl.Run(ctx, Job{Alg: alg, Graph: g, P: p, Seed: 20120521})
			if err != nil {
				t.Fatalf("%s distributed: %v", label, err)
			}
			assertResultsIdentical(t, label, sim, dist)
		}
	}
}

// TestWorkerFailureMidGatherv is the fault drill: the transport.send
// failpoint kills rank 2's Gatherv deposit (chordal-nocomm's only send),
// the coordinator must return a structured error well within the drain
// deadline, and the surviving workers must be reusable for a clean,
// still-deterministic follow-up job.
func TestWorkerFailureMidGatherv(t *testing.T) {
	g := graph.RMAT(9, 8, 0, 0, 0, 7)
	cl, workers := startCluster(t, 3)
	ctx := context.Background()
	job := Job{Alg: sampling.ChordalNoComm, Graph: g, P: 4, Seed: 99}

	faultinject.Enable("transport.send.rank2", faultinject.Spec{Mode: faultinject.ModeError})
	defer faultinject.Disable("transport.send.rank2")
	start := time.Now()
	_, err := cl.Run(ctx, job)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("killed worker: want an error")
	}
	if elapsed > drainTimeout {
		t.Fatalf("failure took %v, want well under the %v drain deadline", elapsed, drainTimeout)
	}
	if !strings.Contains(err.Error(), "rank 2") && !strings.Contains(err.Error(), "injected") {
		t.Fatalf("error does not identify the failure: %v", err)
	}
	if faultinject.Fired("transport.send.rank2") == 0 {
		t.Fatal("failpoint never fired")
	}

	// The workers survive the drill: the same job runs clean afterwards
	// and still matches the simulator.
	faultinject.Disable("transport.send.rank2")
	sim, err := sampling.Run(job.Alg, g, sampling.Options{P: job.P, Seed: job.Seed})
	if err != nil {
		t.Fatal(err)
	}
	dist, err := cl.Run(ctx, job)
	if err != nil {
		t.Fatalf("post-drill job: %v", err)
	}
	assertResultsIdentical(t, "post-drill", sim, dist)

	stats := workers[1].Stats() // rank 2's host worker saw one failed and one clean job
	if stats.JobsFailed < 1 || stats.JobsCompleted < 1 || stats.ActiveJobs != 0 {
		t.Fatalf("worker counters after drill: %+v", stats)
	}
}

// TestAbortOnCancel pins the ctx-driven abort path: ranks blocked in a
// receive unwind with a structured cancellation error instead of wedging.
func TestAbortOnCancel(t *testing.T) {
	comms := makeMesh(t, 2, comm.DefaultCostModel())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i, c := range comms {
		wg.Add(1)
		go func(i int, c *Comm) {
			defer wg.Done()
			defer c.AbortOnCancel(ctx)()
			errs[i] = c.Run(func(r comm.Rank) {
				r.AnyRecv([]int{1 - r.ID()}) // nobody ever sends: only the abort can free this
			})
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "cancel") {
			t.Fatalf("rank %d: want a cancellation error, got %v", i, err)
		}
	}
}

// TestP1RunsLocally: a single-rank job never touches the network.
func TestP1RunsLocally(t *testing.T) {
	g := graph.RMAT(8, 8, 0, 0, 0, 3)
	cl, _ := startCluster(t, 1)
	res, err := cl.Run(context.Background(), Job{Alg: sampling.ChordalNoComm, Graph: g, P: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := sampling.Run(sampling.ChordalNoComm, g, sampling.Options{P: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	se, de := sim.Subgraph.Edges(), res.Subgraph.Edges()
	if len(se) != len(de) {
		t.Fatalf("edge count %d vs %d", len(se), len(de))
	}
	for i := range se {
		if se[i] != de[i] {
			t.Fatalf("edge %d is (%d,%d) simulated, (%d,%d) local", i, se[i].U, se[i].V, de[i].U, de[i].V)
		}
	}
	if !res.Stats.Measured {
		t.Fatal("a one-rank cluster job ran for real: its stats must be marked measured")
	}
}
