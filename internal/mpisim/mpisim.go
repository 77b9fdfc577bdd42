// Package mpisim is the in-process implementation of comm.Comm: P
// comm.Engine ranks, each driven by its own goroutine, joined by an
// in-memory link that hands every frame by reference straight to the
// destination engine. The paper ran on the Firefly MPI cluster with 1–64
// processors; here the engines' virtual clocks give the critical path
// that CostModel.Time reports for the Figure 10 scalability study.
//
// Everything rank-side — unbounded per-source queues (a send never
// blocks, so no send/receive ordering can deadlock a run), the
// deterministic AnyRecv rule, the gather to rank 0 and the clock
// arithmetic — is internal/comm's Engine, the same code the TCP backend
// (internal/transport) runs. This package only wires the engines together
// and measures wall time.
package mpisim

import (
	"fmt"
	"sync"
	"time"

	"parsample/internal/comm"
)

// Comm is a communicator over P simulated ranks.
type Comm struct {
	comm.Engines
	walls []float64 // measured wall seconds each rank goroutine spent in the last Run
	wall  float64   // measured wall seconds of the last Run
}

var _ comm.Comm = (*Comm)(nil)

// link delivers a frame by reference to the destination engine; its
// embedded Engines.Fail fans a failure out to every engine.
type link struct{ comm.Engines }

func (l link) Post(to int, f *comm.Frame) error { return l.Engines[to].Deliver(f) }

// NewComm creates a communicator for p ranks using comm.DefaultCostModel
// for the virtual clocks.
func NewComm(p int) *Comm { return NewCommModel(p, comm.DefaultCostModel()) }

// NewCommModel creates a communicator for p ranks whose virtual clocks
// advance under the given cost model.
func NewCommModel(p int, m comm.CostModel) *Comm {
	if p < 1 {
		panic(fmt.Sprintf("mpisim: p = %d", p))
	}
	es := make(comm.Engines, p)
	for r := range es {
		es[r] = comm.NewEngine(r, p, m, link{es})
	}
	return &Comm{Engines: es, walls: make([]float64, p)}
}

// Run launches fn on every rank concurrently and waits until each has
// finished or unwound, so no goroutine outlives Run. It returns the run's
// first failure — a cancellation via AbortOnCancel, or comm.ErrAborted
// after Abort or Rank.Abort — and nil for a clean run.
func (c *Comm) Run(fn func(r comm.Rank)) error {
	start := time.Now()
	var wg sync.WaitGroup
	for i, e := range c.Engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rankStart := time.Now()
			e.Exec(fn)
			c.walls[i] = time.Since(rankStart).Seconds()
		}()
	}
	wg.Wait()
	c.wall = time.Since(start).Seconds()
	return c.Err()
}

// FillStats copies the run's accounting into s. The wall fields of a
// simulated run are goroutine scheduling time, not a measurement, so
// Measured stays false.
func (c *Comm) FillStats(s *comm.RunStats) {
	c.Engines.FillStats(s)
	copy(s.RankWallSeconds, c.walls)
	s.WallSeconds = c.wall
}
