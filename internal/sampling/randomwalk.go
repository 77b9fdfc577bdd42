package sampling

import (
	"context"
	"math/rand"

	"parsample/internal/comm"
	"parsample/internal/graph"
)

// walkEdges performs the paper's random-walk traversal over an adjacency
// view: starting from a random vertex, at each step one incident edge of the
// current vertex is selected with probability 1/d and the walk moves along
// it; no visited bookkeeping is kept, and the process stops after
// `selections` edge selections (the paper uses half the edge count, counting
// repeats). Vertices with no eligible edges cause a uniform restart.
//
// neighbors(v) returns the eligible neighbor list of v; verts is the pool of
// restart vertices. Selected edges are appended, normalized, to *out.
//
// Only successful selections are charged as compute ops; restarts are
// counted separately so dead-end retries on sparse partitions do not
// inflate the modeled per-rank work (they still show up in
// RunStats.Restarts for diagnostics).
// ctx is polled every 4096 selections; a cancelled walk returns early with
// ctx.Err() (the partial edges in *out are then discarded by the caller).
func walkEdges(ctx context.Context, verts []int32, neighbors func(int32) []int32, selections int,
	rng *rand.Rand, out *[]graph.Edge) (ops, restarts int64, err error) {
	if len(verts) == 0 || selections <= 0 {
		return 0, 0, nil
	}
	cur := verts[rng.Intn(len(verts))]
	failures := 0
	for sel := 0; sel < selections; sel++ {
		if sel%4096 == 0 && ctx.Err() != nil {
			return ops, restarts, ctx.Err()
		}
		nb := neighbors(cur)
		if len(nb) == 0 {
			// Uniform restart; bail out if the whole view appears edgeless
			// (every restart in a row failed).
			restarts++
			failures++
			if failures > len(verts) {
				break
			}
			cur = verts[rng.Intn(len(verts))]
			sel-- // restart does not consume a selection
			continue
		}
		failures = 0
		ops++
		next := nb[rng.Intn(len(nb))]
		*out = append(*out, graph.NormEdge(cur, next))
		cur = next
	}
	return ops, restarts, nil
}

// randomWalkSequential is the sequential random-walk control filter: the
// traversal continues until the number of edge selections is half the total
// number of edges of the network.
func randomWalkSequential(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	rng := rand.New(rand.NewSource(opts.Seed))
	verts := graph.NaturalOrder(g.N())
	var edges []graph.Edge
	ops, restarts, err := walkEdges(ctx, verts, g.Neighbors, g.M()/2, rng, &edges)
	if err != nil {
		return nil, err
	}
	return sequentialResult(RandomWalkSeq, g, edges, ops, restarts), nil
}

// randomWalkParallel partitions the network like the chordal samplers; each
// processor walks its internal edges until selections reach half its internal
// edge count, and every border edge is admitted by an unbiased coin flip
// (coinFlipParallel).
func randomWalkParallel(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	return coinFlipParallel(ctx, RandomWalkPar, g, opts, 7919, walkEdges)
}

// localSampler is the per-rank kernel of a coin-flip sampler: it samples
// up to budget edge selections over verts, restricted to the neighbors nb
// returns, appending normalized edges to *out. walkEdges is one.
type localSampler func(ctx context.Context, verts []int32, nb func(int32) []int32, budget int,
	rng *rand.Rand, out *[]graph.Edge) (ops, restarts int64, err error)

// coinFlipParallel is the driver the parallel random walk and forest fire
// share. It block-partitions the processing order; each rank runs local
// over its block's internal edges with budget half its internal edge
// count and an rng seeded Seed + rank·seedMul, then admits every border
// edge incident on its block by an unbiased coin flip. The coin is a
// deterministic hash of the edge and seed, so both sides of a border make
// the same decision without communicating (the paper's "binary random
// value"), keeping the filter perfectly scalable. The only communication
// is the final gather of partial results to the merge rank.
func coinFlipParallel(ctx context.Context, alg Algorithm, g *graph.Graph, opts Options, seedMul int64,
	local localSampler) (*Result, error) {
	pt := graph.BlockPartition(opts.Order, opts.P)
	internal, border := pt.InternalEdgeCount(g)
	return runRanks(ctx, alg, g, opts, pt, border, func(r comm.Rank) (rankResult, error) {
		rank := r.ID()
		rng := rand.New(rand.NewSource(opts.Seed + int64(rank)*seedMul))
		block := pt.Parts[rank]
		// Eligible neighbors: same-partition only.
		nb := func(v int32) []int32 {
			var out []int32
			for _, w := range g.Neighbors(v) {
				if pt.Part[w] == int32(rank) {
					out = append(out, w)
				}
			}
			return out
		}
		var edges []graph.Edge
		ops, restarts, err := local(ctx, block, nb, internal[rank]/2, rng, &edges)
		if err != nil {
			return rankResult{}, err
		}
		for bi, a := range block {
			if bi%4096 == 0 {
				abortIfCancelled(ctx, r)
			}
			for _, x := range g.Neighbors(a) {
				if pt.Part[x] != int32(rank) {
					ops++
					if edgeCoin(a, x, opts.Seed) {
						edges = append(edges, graph.NormEdge(a, x))
					}
				}
			}
		}
		r.Compute(ops)
		return newRankResult(edges, restarts), nil
	})
}

// edgeCoin is a deterministic fair coin on a normalized edge.
func edgeCoin(u, v int32, seed int64) bool {
	k := graph.SplitMix64(graph.EdgeKey(u, v) ^ uint64(seed)*0x9e3779b97f4a7c15)
	return k&1 == 1
}
