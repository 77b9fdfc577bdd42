package sampling

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"parsample/internal/graph"
)

// The runtime contract: parallel runs are pure functions of
// (graph, order, P, seed, model). Scheduling must not leak into results —
// the merged edge set, the per-rank virtual clocks and the traffic counters
// are identical across repeated runs and across GOMAXPROCS settings.
// Delivery order is decided by modeled arrival time (AnyRecv), not by which
// goroutine the OS happened to run first.
func TestParallelSamplersDeterministic(t *testing.T) {
	g := graph.PlantedModules(600, 900, graph.ModuleSpec{
		Count: 12, MinSize: 10, MaxSize: 16, Density: 0.9, NoiseDeg: 2,
	}, 31).G
	algs := []Algorithm{ChordalComm, ChordalNoComm, RandomWalkPar, ForestFirePar}
	procs := []int{2, 3, 8}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)

	for _, alg := range algs {
		for _, p := range procs {
			ref := mustRun(t, alg, g, Options{P: p, Seed: 17})
			for trial := 0; trial < 2; trial++ {
				for _, gmp := range []int{1, 2, prev} {
					runtime.GOMAXPROCS(gmp)
					got := mustRun(t, alg, g, Options{P: p, Seed: 17})
					if !slices.Equal(ref.Subgraph.Edges(), got.Subgraph.Edges()) {
						t.Fatalf("%v P=%d GOMAXPROCS=%d trial %d: merged edge set differs (%d vs %d edges)",
							alg, p, gmp, trial, ref.Subgraph.M(), got.Subgraph.M())
					}
					for r := range ref.Stats.RankSeconds {
						if got.Stats.RankSeconds[r] != ref.Stats.RankSeconds[r] {
							t.Fatalf("%v P=%d GOMAXPROCS=%d: rank %d clock %v != %v",
								alg, p, gmp, r, got.Stats.RankSeconds[r], ref.Stats.RankSeconds[r])
						}
						if got.Stats.RankOps[r] != ref.Stats.RankOps[r] {
							t.Fatalf("%v P=%d GOMAXPROCS=%d: rank %d ops differ", alg, p, gmp, r)
						}
					}
					if got.Stats.Messages != ref.Stats.Messages || got.Stats.Bytes != ref.Stats.Bytes ||
						got.Stats.CollMessages != ref.Stats.CollMessages {
						t.Fatalf("%v P=%d GOMAXPROCS=%d: traffic counters differ", alg, p, gmp)
					}
					if got.DuplicateBorderEdges != ref.DuplicateBorderEdges {
						t.Fatalf("%v P=%d GOMAXPROCS=%d: duplicate count differs", alg, p, gmp)
					}
				}
			}
		}
	}
}

// Restart accounting: a partition whose block is an independent set (no
// internal edges ever eligible) must report restarts without charging them
// as compute ops.
func TestRandomWalkRestartsNotCharged(t *testing.T) {
	// Block 0 (vertices 0..19 under P=2) holds one internal triangle and 17
	// dead-end leaves whose only neighbors are hubs in block 1 — a walk
	// restarting from a leaf finds no same-partition neighbor and must
	// restart without being charged.
	n := 40
	b := graph.NewBuilder(n)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	for leaf := 3; leaf < n/2; leaf++ {
		b.AddEdge(int32(leaf), int32(n/2+leaf%4)) // hubs are 20..23
	}
	g := b.Build()
	res := mustRun(t, RandomWalkPar, g, Options{P: 2, Seed: 3})
	if res.Stats.Restarts == 0 {
		t.Fatal("expected restarts on the leaf-heavy partition")
	}
	// Rank 0's block has no internal edges: internal[0]/2 = 0 selections, so
	// its walk charges no ops beyond the border scan. The stronger global
	// property: total ops are bounded by successful selections plus border
	// scans, unaffected by restart count.
	maxPossible := int64(g.M()) /* border scans, both sides */ * 2
	for _, ops := range res.Stats.RankOps {
		if ops > maxPossible {
			t.Fatalf("rank ops %d exceed non-restart work bound %d", ops, maxPossible)
		}
	}
}

// Sequential walk on an edgeless pool: every step restarts, no ops charged.
func TestWalkEdgesEdgelessOnlyRestarts(t *testing.T) {
	g := graph.NewBuilder(10).Build() // no edges
	verts := graph.NaturalOrder(10)
	var edges []graph.Edge
	ops, restarts, err := walkEdges(context.Background(), verts, g.Neighbors, 5, rand.New(rand.NewSource(1)), &edges)
	if err != nil {
		t.Fatal(err)
	}
	if ops != 0 {
		t.Fatalf("charged %d ops with no selectable edges", ops)
	}
	if restarts == 0 {
		t.Fatal("expected restarts")
	}
	if len(edges) != 0 {
		t.Fatal("selected edges out of nothing")
	}
}
