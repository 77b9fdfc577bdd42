package sampling

import (
	"context"
	"fmt"

	"parsample/internal/chordal"
	"parsample/internal/comm"
	"parsample/internal/graph"
)

// chordalSequential runs the Dearing–Shier–Warner filter on the whole graph.
func chordalSequential(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	cr, err := chordal.MaximalSubgraphContext(ctx, g, opts.Order)
	if err != nil {
		return nil, err
	}
	return sequentialResult(ChordalSeq, g, cr.Edges, cr.Ops, 0), nil
}

// localChordal computes the maximal chordal subgraph of the edges fully
// inside block rank of pt. It works in block-local ids (pt.Parts[rank][i]
// is local vertex i, pt.Index maps back), so its scratch is linear in the
// block, not the graph. The local natural order is the block's slice of
// the global processing order. It returns the chordal edges in global ids,
// normalized and duplicate free, plus a CSR over them in local ids for the
// border rules' chordal-edge probes. Border admissions always pair an
// internal vertex with an external one, so they never change a probe's
// answer and the CSR is built once, before any of them.
func localChordal(ctx context.Context, g *graph.Graph, pt *graph.Partition, rank int) ([]graph.Edge, *graph.Graph, int64, error) {
	block := pt.Parts[rank]
	cr, err := chordal.MaximalSubgraphContext(ctx, pt.Induced(g, rank), graph.NaturalOrder(len(block)))
	if err != nil {
		return nil, nil, 0, err
	}
	probe := graph.FromEdges(len(block), cr.Edges)
	edges := cr.Edges
	for i, e := range edges {
		edges[i] = graph.NormEdge(block[e.U], block[e.V])
	}
	return edges, probe, cr.Ops, nil
}

// chordalNoComm is the paper's improved communication-free parallel chordal
// sampler. Step 1: partition; Step 2: per-partition maximal chordal subgraph
// over internal edges; Step 3: a pair of border edges (a,x),(b,x) incident on
// an external vertex x is admitted iff the local edge (a,b) is a chordal
// edge — the triangle rule. Both sides of a border may admit the same edge;
// duplicates are removed in the sequential merge. The sampling phase sends
// no point-to-point messages; partial results reach the merge through one
// Gatherv.
func chordalNoComm(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	pt := graph.BlockPartition(opts.Order, opts.P)
	_, border := pt.InternalEdgeCount(g)
	return runRanks(ctx, ChordalNoComm, g, opts, pt, border, func(r comm.Rank) (rankResult, error) {
		rank := r.ID()
		block := pt.Parts[rank]
		edges, probe, ops, err := localChordal(ctx, g, pt, rank)
		if err != nil {
			return rankResult{}, err
		}
		// Group border edges by their external endpoint. External endpoints
		// are collected per rank into a flat list sorted by endpoint — the
		// grouping needs no hash map.
		var borders []graph.Edge // {external x, internal a}
		for bi, a := range block {
			if bi%4096 == 0 {
				abortIfCancelled(ctx, r)
			}
			for _, x := range g.Neighbors(a) {
				if pt.Part[x] != int32(rank) {
					borders = append(borders, graph.Edge{U: x, V: a})
					ops++
				}
			}
		}
		graph.SortEdges(borders)
		// Triangle rule: member a of x's group is admitted iff some other
		// member b closes the triangle with a chordal edge (a,b). Stamping
		// the group's members and walking each member's chordal neighbors
		// decides it in O(Σ chordal degree) instead of the k(k−1)/2 pair
		// probes; ops still charges the model's pair count.
		group := make([]int32, len(block)) // group[i] = current group id while local i is a member
		for lo, id := 0, int32(1); lo < len(borders); id++ {
			if id%1024 == 0 {
				abortIfCancelled(ctx, r)
			}
			hi := lo + 1
			for hi < len(borders) && borders[hi].U == borders[lo].U {
				hi++
			}
			as := borders[lo:hi]
			lo = hi
			k := int64(len(as))
			ops += k * (k - 1) / 2
			if k < 2 {
				continue
			}
			for _, e := range as {
				group[pt.Index[e.V]] = id
			}
			for _, e := range as {
				for _, b := range probe.Neighbors(pt.Index[e.V]) {
					if group[b] == id {
						edges = append(edges, graph.NormEdge(e.V, e.U))
						break
					}
				}
			}
		}
		r.Compute(ops)
		return newRankResult(edges, 0), nil
	})
}

// borderMsg is the payload exchanged by chordalWithComm. An empty edge list
// is the end-of-stream sentinel.
type borderMsg struct{ edges []graph.Edge }

// msgChunk is the number of border edges carried per message; smaller chunks
// make the message count (and therefore the modeled overhead/latency cost)
// scale with the border size b, matching the paper's O(b²/d) communication
// analysis.
const msgChunk = 64

// chordalWithComm reproduces the earlier (HPCS/ICCS 2011) parallel chordal
// sampler: after the per-partition chordal step, for every pair of partitions
// sharing border edges the lower rank is the sender and the higher rank the
// receiver. The receiver accepts each incoming border edge iff its accepted
// subgraph (local chordal edges + previously accepted border edges) stays
// chordal — a per-candidate chordality test over the involved region, which
// is where the O(b²/d) cost and the poor small-graph scalability come from.
//
// Sends are nonblocking posts into the runtime's unbounded queues and the
// receive loop drains partners through AnyRecv in modeled-arrival order, so
// no border volume can deadlock the run (the earlier bounded-mailbox runtime
// wedged at P ≥ 3 once any partition pair carried more than ~4096 mutual
// border edges).
func chordalWithComm(ctx context.Context, g *graph.Graph, opts Options) (*Result, error) {
	pt := graph.BlockPartition(opts.Order, opts.P)
	p := pt.P()

	// Precompute, per ordered pair (sender < receiver), the mutual border
	// edges as seen from the sender side.
	pairEdges := make([][][]graph.Edge, p) // pairEdges[sender][receiver]
	for s := 0; s < p; s++ {
		pairEdges[s] = make([][]graph.Edge, p)
	}
	g.ForEachEdge(func(u, v int32) {
		pu, pv := pt.Part[u], pt.Part[v]
		if pu == pv {
			return
		}
		lo, hi := pu, pv
		if lo > hi {
			lo, hi = hi, lo
		}
		pairEdges[lo][hi] = append(pairEdges[lo][hi], graph.Edge{U: u, V: v})
	})

	_, border := pt.InternalEdgeCount(g)
	return runRanks(ctx, ChordalComm, g, opts, pt, border, func(r comm.Rank) (rankResult, error) {
		rank := r.ID()
		edges, probe, ops, err := localChordal(ctx, g, pt, rank)
		if err != nil {
			return rankResult{}, err
		}
		r.Compute(ops)

		// Send mutual border edges to every higher-ranked partner sharing a
		// border, chunked, with an end-of-stream sentinel. Sends never
		// block, so the whole exchange is posted before the receive loop.
		for recv := rank + 1; recv < p; recv++ {
			edges := pairEdges[rank][recv]
			if len(edges) == 0 {
				continue
			}
			for lo := 0; lo < len(edges); lo += msgChunk {
				hi := lo + msgChunk
				if hi > len(edges) {
					hi = len(edges)
				}
				chunk := edges[lo:hi]
				r.Send(recv, borderMsg{edges: chunk}, 8*len(chunk))
			}
			r.Send(recv, borderMsg{}, 0)
		}

		// Receive candidate border edges from every lower-ranked partner
		// sharing a border, in modeled-arrival order, and accept those that
		// keep the receiver's subgraph chordal. The test is incremental: an
		// external vertex u may connect to a set of local vertices only if
		// that set is a clique in the local chordal subgraph (attaching a
		// vertex whose neighborhood is a clique preserves chordality).
		// Scanning u's previously accepted neighbors for every candidate is
		// where the paper's O(b²/d) receiver cost comes from.
		// Accepted border edges are grouped by external vertex in a per-rank
		// slice table indexed lazily via a stamp array — no hash map. The
		// table holds the local vertices' block-local ids, the probe CSR's.
		acceptedNbrs := make([][]int32, 0, 16) // compact storage, see extSlot
		extSlot := make([]int32, g.N())        // external vertex -> slot+1 (0 = none)
		var sources []int
		for send := 0; send < rank; send++ {
			if len(pairEdges[send][rank]) > 0 {
				sources = append(sources, send)
			}
		}
		for len(sources) > 0 {
			abortIfCancelled(ctx, r)
			msg := r.AnyRecv(sources)
			bm, ok := msg.Payload.(borderMsg)
			if !ok {
				return rankResult{}, fmt.Errorf("sampling: rank %d got a %T from rank %d, want a border chunk", rank, msg.Payload, msg.From)
			}
			if len(bm.edges) == 0 {
				for i, s := range sources {
					if s == msg.From {
						sources = append(sources[:i], sources[i+1:]...)
						break
					}
				}
				continue
			}
			var ops int64
			for _, e := range bm.edges {
				ext, loc := e.U, e.V
				// The payload may have crossed the wire: both endpoints
				// must exist, the local one here and the external one on
				// the sending rank, before anything is indexed by them.
				if uint(ext) >= uint(g.N()) || uint(loc) >= uint(g.N()) {
					return rankResult{}, fmt.Errorf("sampling: rank %d got border edge (%d,%d) outside the %d-vertex graph", rank, ext, loc, g.N())
				}
				if pt.Part[ext] == int32(rank) {
					ext, loc = loc, ext
				}
				if pt.Part[loc] != int32(rank) || pt.Part[ext] != int32(msg.From) {
					return rankResult{}, fmt.Errorf("sampling: rank %d got border edge (%d,%d) that does not join it to rank %d", rank, e.U, e.V, msg.From)
				}
				slot := extSlot[ext]
				var bu []int32
				if slot > 0 {
					bu = acceptedNbrs[slot-1]
				}
				li := pt.Index[loc]
				ok := true
				for _, w := range bu {
					ops++
					if !probe.HasEdgeFast(w, li) {
						ok = false
						break
					}
				}
				// The receiver also verifies the candidate against its
				// local adjacency structure (re-examination of border
				// edges is the extra compute the paper attributes to
				// the communicating version — roughly 2× at P=2 on the
				// large network).
				ops += int64(g.Degree(loc)) + 1
				if ok {
					edges = append(edges, graph.NormEdge(ext, loc))
					if slot == 0 {
						acceptedNbrs = append(acceptedNbrs, nil)
						slot = int32(len(acceptedNbrs))
						extSlot[ext] = slot
					}
					acceptedNbrs[slot-1] = append(acceptedNbrs[slot-1], li)
				}
			}
			// Charge the per-message candidate processing as it happens, so
			// the virtual clock interleaves compute with the waits.
			r.Compute(ops)
		}
		return newRankResult(edges, 0), nil
	})
}
