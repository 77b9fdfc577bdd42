package sampling

import (
	"testing"
	"time"

	"parsample/internal/graph"
)

// completeMultipartite builds the complete k-partite graph with `size`
// vertices per part: every cross-part pair is an edge, no internal edges.
// Under the natural order BlockPartition makes each part one processor
// block, so every one of the k·(k-1)/2 partition pairs carries size² mutual
// border edges.
func completeMultipartite(k, size int) *graph.Graph {
	n := k * size
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if u/size != v/size {
				b.AddEdge(int32(u), int32(v))
			}
		}
	}
	return b.Build()
}

// Regression: the pre-PR-3 runtime used 64-deep bounded mailboxes and a
// receive loop that drained senders in strict rank order, while every rank
// posted all of its border chunks to all higher ranks before receiving
// anything. At P ≥ 3, once any partition pair carried more than
// 64 chunks × 64 edges = 4096 mutual border edges, the send chains filled
// each other's mailboxes and the run wedged (rank 0 blocked sending to 1,
// 1 to 2, 2 to 3, and 3 waiting on 0). This test reproduces exactly that
// shape — P=4, 4900 mutual border edges per partition pair — and must
// complete on the deadlock-free runtime; the watchdog turns a regression
// into a fast failure instead of a hung CI job.
func TestChordalCommDenseBordersNoDeadlock(t *testing.T) {
	g := completeMultipartite(4, 70) // 70² = 4900 > 4096 border edges per pair
	type outcome struct {
		res *Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := RunContext(t.Context(), ChordalComm, g, Options{P: 4})
		done <- outcome{res, err}
	}()
	select {
	case out := <-done:
		if out.err != nil {
			t.Fatal(out.err)
		}
		res := out.res
		if res.Subgraph.M() == 0 {
			t.Fatal("empty result")
		}
		res.Subgraph.ForEachEdge(func(u, v int32) {
			if !g.HasEdge(u, v) {
				t.Fatalf("edge (%d,%d) not in input", u, v)
			}
		})
		if res.Stats.Messages < 3*(4900/msgChunk) {
			t.Fatalf("expected a deep border exchange, got %d messages", res.Stats.Messages)
		}
	case <-time.After(90 * time.Second): // must beat the CI per-package -timeout 120s
		t.Fatal("chordalWithComm deadlocked on >4096 mutual border edges per partition pair")
	}
}
