package mpisim

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"parsample/internal/comm"
)

// TestMain asserts that the package leaks no goroutines: a future runtime
// bug that leaves a rank blocked (the shape a deadlock takes under the old
// bounded-mailbox design) fails the suite fast instead of hanging CI.
func TestMain(m *testing.M) {
	base := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			fmt.Fprintf(os.Stderr, "mpisim: %d goroutines leaked (baseline %d):\n%s\n", n-base, base, buf)
			code = 1
		}
	}
	os.Exit(code)
}

func TestSendRecv(t *testing.T) {
	c := NewComm(2)
	c.Run(func(r comm.Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, "hello", 5)
		} else {
			m := r.Recv(0)
			if m.From != 0 || m.Tag != 7 || m.Payload.(string) != "hello" || m.Bytes != 5 {
				t.Errorf("bad message: %+v", m)
			}
		}
	})
	if c.Messages() != 1 || c.Bytes() != 5 {
		t.Fatalf("counters: msgs=%d bytes=%d", c.Messages(), c.Bytes())
	}
}

// TestUnboundedQueues: the old runtime's 64-deep mailboxes made this
// pattern deadlock — a rank posting thousands of messages before its
// partner receives anything. Sends must never block.
func TestUnboundedQueues(t *testing.T) {
	const n = 10000
	c := NewComm(2)
	received := 0
	c.Run(func(r comm.Rank) {
		if r.ID() == 0 {
			for i := 0; i < n; i++ {
				r.Send(1, 0, i, 4)
			}
		} else {
			for i := 0; i < n; i++ {
				m := r.Recv(0)
				if m.Payload.(int) != i {
					t.Errorf("out of order: got %d want %d", m.Payload.(int), i)
					return
				}
				received++
			}
		}
	})
	if received != n {
		t.Fatalf("received %d of %d", received, n)
	}
}

func TestSendrecvFullExchange(t *testing.T) {
	// Every rank exchanges with every other simultaneously — deadlock-prone
	// under blocking sends, safe under Sendrecv.
	const p = 8
	c := NewComm(p)
	var sum atomic.Int64
	c.Run(func(r comm.Rank) {
		for d := 1; d < p; d++ {
			to := (r.ID() + d) % p
			from := (r.ID() - d + p) % p
			m := r.Sendrecv(to, 0, r.ID(), 8, from)
			sum.Add(int64(m.Payload.(int)))
		}
	})
	want := int64((p - 1) * p * (p - 1) / 2) // each rank id counted p-1 times
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestAnyRecvVirtualArrivalOrder(t *testing.T) {
	// Rank 0 computes a long time before sending; rank 1 sends immediately.
	// AnyRecv at rank 2 must deliver in modeled-arrival order (1 before 0)
	// regardless of real scheduling.
	c := NewComm(3)
	var order []int
	c.Run(func(r comm.Rank) {
		switch r.ID() {
		case 0:
			r.Compute(1_000_000)
			r.Send(2, 0, "slow", 4)
		case 1:
			r.Send(2, 0, "fast", 4)
		case 2:
			sources := []int{0, 1}
			for i := 0; i < 2; i++ {
				m := r.AnyRecv(sources)
				order = append(order, m.From)
				for j, s := range sources {
					if s == m.From {
						sources = append(sources[:j], sources[j+1:]...)
						break
					}
				}
			}
		}
	})
	if len(order) != 2 || order[0] != 1 || order[1] != 0 {
		t.Fatalf("delivery order %v, want [1 0]", order)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	const p = 8
	c := NewComm(p)
	var before, after atomic.Int32
	c.Run(func(r comm.Rank) {
		before.Add(1)
		r.Barrier()
		if got := before.Load(); got != p {
			t.Errorf("rank %d passed barrier with only %d arrivals", r.ID(), got)
		}
		after.Add(1)
	})
	if after.Load() != p {
		t.Fatal("not all ranks finished")
	}
}

func TestBarrierReusable(t *testing.T) {
	const p = 4
	c := NewComm(p)
	var phase atomic.Int32
	c.Run(func(r comm.Rank) {
		for i := 0; i < 10; i++ {
			r.Barrier()
			phase.Add(1)
			r.Barrier()
		}
	})
	if phase.Load() != 10*p {
		t.Fatalf("phase = %d, want %d", phase.Load(), 10*p)
	}
}

func TestManyToOneAnyRecv(t *testing.T) {
	const p = 6
	c := NewComm(p)
	var sum atomic.Int64
	c.Run(func(r comm.Rank) {
		if r.ID() == 0 {
			sources := []int{1, 2, 3, 4, 5}
			for len(sources) > 0 {
				m := r.AnyRecv(sources)
				sum.Add(int64(m.Payload.(int)))
				for j, s := range sources {
					if s == m.From {
						sources = append(sources[:j], sources[j+1:]...)
						break
					}
				}
			}
		} else {
			r.Send(0, 0, r.ID()*10, 8)
		}
	})
	if sum.Load() != 10+20+30+40+50 {
		t.Fatalf("sum = %d", sum.Load())
	}
	if c.Messages() != p-1 {
		t.Fatalf("messages = %d, want %d", c.Messages(), p-1)
	}
}

func TestGathervReassembly(t *testing.T) {
	const p = 7
	c := NewComm(p)
	var rootGot [][]int
	c.Run(func(r comm.Rank) {
		// Variable-size payload: rank i contributes i+1 ints.
		mine := make([]int, r.ID()+1)
		for j := range mine {
			mine[j] = r.ID()*100 + j
		}
		all := r.Gatherv(3, mine, 8*len(mine))
		if r.ID() != 3 {
			if all != nil {
				t.Errorf("rank %d: non-root got a gather result", r.ID())
			}
			return
		}
		rootGot = make([][]int, p)
		for i, v := range all {
			rootGot[i] = v.([]int)
		}
	})
	if len(rootGot) != p {
		t.Fatalf("root gathered %d slots", len(rootGot))
	}
	for i, s := range rootGot {
		if len(s) != i+1 {
			t.Fatalf("rank %d slot has %d elements, want %d", i, len(s), i+1)
		}
		for j, v := range s {
			if v != i*100+j {
				t.Fatalf("slot %d[%d] = %d", i, j, v)
			}
		}
	}
	if c.CollMessages() != p-1 {
		t.Fatalf("collective messages = %d, want %d", c.CollMessages(), p-1)
	}
}

func TestBcast(t *testing.T) {
	const p = 5
	c := NewComm(p)
	var got [p]string
	c.Run(func(r comm.Rank) {
		payload := fmt.Sprintf("from-%d", r.ID())
		got[r.ID()] = r.Bcast(2, payload, len(payload)).(string)
	})
	for i, s := range got {
		if s != "from-2" {
			t.Fatalf("rank %d got %q", i, s)
		}
	}
	if c.CollMessages() != p-1 {
		t.Fatalf("collective messages = %d", c.CollMessages())
	}
}

func TestAllreduce(t *testing.T) {
	const p = 9
	c := NewComm(p)
	var sums, maxs, mins [p]float64
	c.Run(func(r comm.Rank) {
		v := float64(r.ID() + 1)
		sums[r.ID()] = r.Allreduce(v, comm.ReduceSum)
		maxs[r.ID()] = r.Allreduce(v, comm.ReduceMax)
		mins[r.ID()] = r.Allreduce(v, comm.ReduceMin)
	})
	for i := 0; i < p; i++ {
		if sums[i] != 45 {
			t.Fatalf("rank %d sum = %v", i, sums[i])
		}
		if maxs[i] != 9 || mins[i] != 1 {
			t.Fatalf("rank %d max/min = %v/%v", i, maxs[i], mins[i])
		}
	}
}

func TestAllreduceDeterministicFold(t *testing.T) {
	// The fold runs in rank order on every rank, so floating-point sums are
	// bitwise identical across ranks and across repeated runs — the
	// "associativity" contract callers rely on.
	const p = 8
	vals := []float64{1e16, 1, -1e16, 3.5, 0.25, 1e-8, 7, -2}
	var ref [p]float64
	for trial := 0; trial < 3; trial++ {
		c := NewComm(p)
		var got [p]float64
		c.Run(func(r comm.Rank) {
			got[r.ID()] = r.Allreduce(vals[r.ID()], comm.ReduceSum)
		})
		for i := 1; i < p; i++ {
			if got[i] != got[0] {
				t.Fatalf("trial %d: rank %d disagrees: %v vs %v", trial, i, got[i], got[0])
			}
		}
		if trial == 0 {
			ref = got
		} else if got != ref {
			t.Fatalf("trial %d: result changed across runs: %v vs %v", trial, got, ref)
		}
	}
}

func TestVirtualClockPointToPoint(t *testing.T) {
	m := comm.CostModel{SecondsPerOp: 1e-6, LatencySeconds: 1e-3, OverheadSeconds: 1e-4, SecondsPerByte: 1e-7}
	c := NewCommModel(2, m)
	var stats comm.RunStats
	c.Run(func(r comm.Rank) {
		if r.ID() == 0 {
			r.Compute(1000) // 1 ms
			r.Send(1, 0, "x", 100)
		} else {
			r.Recv(0)
		}
	})
	c.FillStats(&stats)
	// Sender: 1000 ops + send overhead.
	want0 := 1000*1e-6 + 1e-4
	// Receiver: idle until arrival (send clock + latency + 100 B transfer),
	// then receive overhead.
	want1 := want0 + 1e-3 + 100*1e-7 + 1e-4
	if math.Abs(stats.RankSeconds[0]-want0) > 1e-12 {
		t.Fatalf("rank 0 clock %v, want %v", stats.RankSeconds[0], want0)
	}
	if math.Abs(stats.RankSeconds[1]-want1) > 1e-12 {
		t.Fatalf("rank 1 clock %v, want %v", stats.RankSeconds[1], want1)
	}
	if m.Time(&stats) != stats.CriticalPath() {
		t.Fatalf("Time should charge the critical path")
	}
}

func TestVirtualClockOverlap(t *testing.T) {
	// A receiver that is already past a message's arrival time pays only the
	// receive overhead — waited-on communication, not all communication,
	// lands on the critical path.
	m := comm.CostModel{SecondsPerOp: 1e-6, LatencySeconds: 1e-3, OverheadSeconds: 0}
	c := NewCommModel(2, m)
	var stats comm.RunStats
	c.Run(func(r comm.Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, "early", 0)
		} else {
			r.Compute(10_000) // 10 ms >> 1 ms arrival
			r.Recv(0)
		}
	})
	c.FillStats(&stats)
	if got, want := stats.RankSeconds[1], 10_000*1e-6; got != want {
		t.Fatalf("receiver clock %v, want %v (no extra wait)", got, want)
	}
}

func TestRunClockDeterminism(t *testing.T) {
	run := func() []float64 {
		c := NewComm(4)
		c.Run(func(r comm.Rank) {
			r.Compute(int64(100 * (r.ID() + 1)))
			if r.ID() > 0 {
				r.Send(0, 0, r.ID(), 8)
			} else {
				sources := []int{1, 2, 3}
				for len(sources) > 0 {
					m := r.AnyRecv(sources)
					r.Compute(50)
					for j, s := range sources {
						if s == m.From {
							sources = append(sources[:j], sources[j+1:]...)
							break
						}
					}
				}
			}
			r.Barrier()
		})
		var s comm.RunStats
		c.FillStats(&s)
		return s.RankSeconds
	}
	ref := run()
	for i := 0; i < 10; i++ {
		got := run()
		for r := range ref {
			if got[r] != ref[r] {
				t.Fatalf("run %d rank %d clock %v != %v", i, r, got[r], ref[r])
			}
		}
	}
}

// TestCollectiveMismatch: ranks that disagree on which collective they are
// in fail the run with a structured error instead of silently exchanging
// values, and every rank unwinds (TestMain's leak check covers the rest).
func TestCollectiveMismatch(t *testing.T) {
	c := NewComm(2)
	var finished atomic.Int32
	err := c.Run(func(r comm.Rank) {
		if r.ID() == 0 {
			r.Bcast(0, "x", 1)
		} else {
			r.Gatherv(0, "y", 1)
		}
		finished.Add(1)
	})
	if err == nil || !strings.Contains(err.Error(), "collective mismatch") ||
		!strings.Contains(err.Error(), "Gatherv") || !strings.Contains(err.Error(), "Bcast") {
		t.Fatalf("want a collective mismatch naming both ops, got %v", err)
	}
	if n := finished.Load(); n != 0 {
		t.Fatalf("%d ranks completed a mismatched collective", n)
	}
}

// TestAbortUnwindsRun: Comm.Abort wakes a rank blocked in a receive nobody
// will satisfy, and Run reports the abort.
func TestAbortUnwindsRun(t *testing.T) {
	c := NewComm(2)
	go func() {
		time.Sleep(10 * time.Millisecond)
		c.Abort()
	}()
	err := c.Run(func(r comm.Rank) { r.Recv(1 - r.ID()) })
	if !errors.Is(err, comm.ErrAborted) {
		t.Fatalf("want comm.ErrAborted, got %v", err)
	}
}

func TestNewCommPanicsOnBadP(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewComm(0)
}

func TestSendToSelfPanics(t *testing.T) {
	c := NewComm(2)
	c.Run(func(r comm.Rank) {
		if r.ID() != 0 {
			return
		}
		defer func() {
			if recover() == nil {
				t.Error("want panic on self-send")
			}
		}()
		r.Send(0, 0, nil, 0)
	})
}

func TestCostModelMonotonic(t *testing.T) {
	m := comm.DefaultCostModel()
	base := comm.RunStats{P: 4, RankOps: []int64{100, 200, 150, 120}, Messages: 10, Bytes: 1000, SerialOps: 50}
	t0 := m.Time(&base)
	if t0 <= 0 {
		t.Fatal("time must be positive")
	}
	moreMsgs := base
	moreMsgs.Messages = 100
	if m.Time(&moreMsgs) <= t0 {
		t.Fatal("more messages must cost more")
	}
	moreWork := base
	moreWork.RankOps = []int64{100, 500, 150, 120}
	if m.Time(&moreWork) <= t0 {
		t.Fatal("bigger bottleneck rank must cost more")
	}
	// Clocked stats switch Time to the critical path.
	clocked := base
	clocked.RankSeconds = []float64{0.5, 2.0, 1.0, 0.25}
	want := 2.0 + float64(clocked.SerialOps)*m.SerialSecPerOp
	if got := m.Time(&clocked); got != want {
		t.Fatalf("clocked time %v, want %v", got, want)
	}
}

func TestRunStatsAggregates(t *testing.T) {
	s := comm.RunStats{RankOps: []int64{3, 9, 1}}
	if s.MaxRankOps() != 9 {
		t.Fatalf("max = %d", s.MaxRankOps())
	}
	if s.TotalOps() != 13 {
		t.Fatalf("total = %d", s.TotalOps())
	}
	empty := comm.RunStats{}
	if empty.MaxRankOps() != 0 || empty.TotalOps() != 0 || empty.CriticalPath() != 0 {
		t.Fatal("empty stats should be zero")
	}
}
