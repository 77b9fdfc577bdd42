package sampling

import (
	"context"
	"math/rand"

	"parsample/internal/graph"
)

// Forest-fire sampling (Leskovec & Faloutsos, KDD'06) is the second agnostic
// control filter the paper's related-work section cites as "good at
// extracting samples from large networks". It is implemented here as an
// extension baseline: fires start at random vertices and spread to a
// geometrically distributed number of unburned neighbors; traversed edges
// are selected. The stopping rule matches the random-walk control: the
// process runs until the number of edge selections is half the edge count.

// forestFire runs fires over an adjacency view until `selections` edges have
// been selected (repeat selections across fires count, as in the random
// walk). pf is the forward-burning probability. Selected edges are
// appended, normalized, to *out; n is the vertex universe (for the
// burn-tag array).
// ctx is polled once per fire; a cancelled run returns early with ctx.Err().
func forestFire(ctx context.Context, verts []int32, n int, neighbors func(int32) []int32, selections int,
	pf float64, rng *rand.Rand, out *[]graph.Edge) (int64, error) {
	var ops int64
	if len(verts) == 0 || selections <= 0 {
		return ops, nil
	}
	// burnedAt is O(n) per rank (all ranks run concurrently); int32 halves
	// the footprint versus int.
	burnedAt := make([]int32, n) // vertex -> fire id that burned it (0 = never)
	fire := int32(0)
	sel := 0
	idle := 0
	for sel < selections {
		if err := ctx.Err(); err != nil {
			return ops, err
		}
		fire++
		if idle > len(verts) {
			break // nothing left to burn anywhere
		}
		start := verts[rng.Intn(len(verts))]
		queue := []int32{start}
		burnedAt[start] = fire
		burnedAny := false
		for len(queue) > 0 && sel < selections {
			v := queue[0]
			queue = queue[1:]
			// Geometric(1-pf) burst size: number of neighbors to burn.
			k := 0
			for rng.Float64() < pf {
				k++
			}
			nb := neighbors(v)
			ops += int64(len(nb)) + 1
			// Burn up to k unburned (this fire) neighbors, chosen randomly.
			perm := rng.Perm(len(nb))
			for _, pi := range perm {
				if k == 0 || sel >= selections {
					break
				}
				u := nb[pi]
				if burnedAt[u] == fire {
					continue
				}
				burnedAt[u] = fire
				*out = append(*out, graph.NormEdge(v, u))
				sel++
				k--
				burnedAny = true
				queue = append(queue, u)
			}
		}
		if burnedAny {
			idle = 0
		} else {
			idle++
		}
	}
	return ops, nil
}

// forestFireSequential applies the forest-fire filter to the whole network.
func forestFireSequential(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	verts := graph.NaturalOrder(g.N())
	var edges []graph.Edge
	ops, err := forestFire(ctx, verts, g.N(), g.Neighbors, g.M()/2, defaultForwardProb, rng, &edges)
	if err != nil {
		return nil, err
	}
	return sequentialResult(ForestFireSeq, g, edges, ops, 0), nil
}

// defaultForwardProb is Leskovec's recommended forward-burning probability.
const defaultForwardProb = 0.7

// forestFireParallel partitions the network like the other parallel filters:
// local fires over internal edges, hash-coin admission for border edges
// (communication-free, like the parallel random walk; coinFlipParallel).
func forestFireParallel(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	return coinFlipParallel(ctx, ForestFirePar, g, opts, 104729,
		func(ctx context.Context, verts []int32, nb func(int32) []int32, budget int, rng *rand.Rand, out *[]graph.Edge) (int64, int64, error) {
			ops, err := forestFire(ctx, verts, g.N(), nb, budget, defaultForwardProb, rng, out)
			return ops, 0, err
		})
}
