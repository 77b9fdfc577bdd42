package mpisim

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
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
			r.Send(1, "hello", 5)
		} else {
			m := r.AnyRecv([]int{0})
			if m.From != 0 || m.Payload.(string) != "hello" || m.Bytes != 5 {
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
				r.Send(1, i, 4)
			}
		} else {
			for i := 0; i < n; i++ {
				m := r.AnyRecv([]int{0})
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
	// Every rank exchanges with every other simultaneously — the pattern
	// MPI_Sendrecv exists for, deadlock-prone under blocking sends, safe
	// here because Send never blocks: post every send, then drain every
	// peer through AnyRecv.
	const p = 8
	c := NewComm(p)
	var sum atomic.Int64
	c.Run(func(r comm.Rank) {
		var sources []int
		for d := 1; d < p; d++ {
			r.Send((r.ID()+d)%p, r.ID(), 8)
			sources = append(sources, (r.ID()-d+p)%p)
		}
		for len(sources) > 0 {
			m := r.AnyRecv(sources)
			sum.Add(int64(m.Payload.(int)))
			sources = slices.DeleteFunc(sources, func(s int) bool { return s == m.From })
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
			r.Send(2, "slow", 4)
		case 1:
			r.Send(2, "fast", 4)
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
			r.Send(0, r.ID()*10, 8)
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
		all := r.Gatherv(mine, 8*len(mine))
		if r.ID() != 0 {
			if all != nil {
				t.Errorf("rank %d: a contributor got a gather result", r.ID())
			}
			return
		}
		rootGot = make([][]int, p)
		for i, v := range all {
			rootGot[i] = v.([]int)
		}
	})
	if len(rootGot) != p {
		t.Fatalf("rank 0 gathered %d slots", len(rootGot))
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

// TestGathervContributorsDoNotWait: a contributor deposits and moves on,
// so it can still send to rank 0 after its Gatherv — a kernel shape that
// would deadlock if contributors waited for rank 0 to finish the gather.
func TestGathervContributorsDoNotWait(t *testing.T) {
	c := NewComm(2)
	var got []any
	var after any
	err := c.Run(func(r comm.Rank) {
		if r.ID() == 1 {
			if r.Gatherv("mine", 4) != nil {
				t.Error("a contributor got a gather result")
			}
			r.Send(0, "after", 5)
			return
		}
		after = r.AnyRecv([]int{1}).Payload
		got = r.Gatherv("root", 4)
	})
	if err != nil {
		t.Fatal(err)
	}
	if after != "after" || len(got) != 2 || got[0] != "root" || got[1] != "mine" {
		t.Fatalf("rank 0 received %v, then gathered %v", after, got)
	}
}

func TestVirtualClockPointToPoint(t *testing.T) {
	m := comm.CostModel{SecondsPerOp: 1e-6, LatencySeconds: 1e-3, OverheadSeconds: 1e-4, SecondsPerByte: 1e-7}
	c := NewCommModel(2, m)
	var stats comm.RunStats
	c.Run(func(r comm.Rank) {
		if r.ID() == 0 {
			r.Compute(1000) // 1 ms
			r.Send(1, "x", 100)
		} else {
			r.AnyRecv([]int{0})
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
			r.Send(1, "early", 0)
		} else {
			r.Compute(10_000) // 10 ms >> 1 ms arrival
			r.AnyRecv([]int{0})
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
				r.Send(0, r.ID(), 8)
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
			r.Gatherv(r.ID(), 8)
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

// TestAbortUnwindsRun: Comm.Abort wakes a rank blocked in a receive nobody
// will satisfy, and Run reports the abort.
func TestAbortUnwindsRun(t *testing.T) {
	c := NewComm(2)
	go func() {
		time.Sleep(10 * time.Millisecond)
		c.Abort()
	}()
	err := c.Run(func(r comm.Rank) { r.AnyRecv([]int{1 - r.ID()}) })
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
		r.Send(0, nil, 0)
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
