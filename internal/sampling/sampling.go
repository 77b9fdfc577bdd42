// Package sampling implements the paper's network sampling filters:
//
//   - sequential maximal chordal subgraph extraction (Section III.A),
//   - the earlier parallel chordal sampler WITH border-edge communication
//     (sender/receiver exchange, quasi-chordal output),
//   - the paper's improved COMMUNICATION-FREE parallel chordal sampler
//     (border edges admitted only when they close a triangle with a local
//     chordal edge),
//   - sequential and parallel random-walk sampling as the control filter.
//
// All parallel variants partition the vertex processing order into P
// contiguous blocks (one per simulated processor) and report per-rank
// operation counts plus communication volume, which the comm cost model turns
// into modeled cluster execution times for the scalability study (Fig. 10).
package sampling

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"parsample/internal/comm"
	"parsample/internal/graph"
	"parsample/internal/mpisim"
)

// Algorithm identifies a sampling filter.
type Algorithm int

const (
	// ChordalSeq is the sequential Dearing–Shier–Warner maximal chordal
	// subgraph filter.
	ChordalSeq Algorithm = iota
	// ChordalComm is the earlier parallel chordal filter that exchanges
	// border edges between processor pairs (sender → receiver) and lets the
	// receiver retain the ones that keep its subgraph chordal.
	ChordalComm
	// ChordalNoComm is the paper's improved communication-free parallel
	// chordal filter: a pair of border edges sharing an external endpoint is
	// admitted iff the local edge closing the triangle is a chordal edge.
	ChordalNoComm
	// RandomWalkSeq is the sequential random-walk control filter.
	RandomWalkSeq
	// RandomWalkPar is the parallel random-walk control filter with
	// coin-flip border-edge admission.
	RandomWalkPar
	// ForestFireSeq is the sequential forest-fire control filter (Leskovec &
	// Faloutsos), an extension baseline beyond the paper's random walk.
	ForestFireSeq
	// ForestFirePar is the parallel forest-fire control filter.
	ForestFirePar
)

// All lists every implemented filter, in declaration order. It is the
// single source of truth for name-driven front ends (CLI flag parsing, the
// service API's wire names).
var All = []Algorithm{
	ChordalSeq, ChordalComm, ChordalNoComm,
	RandomWalkSeq, RandomWalkPar,
	ForestFireSeq, ForestFirePar,
}

// String returns the name used in reports and figures.
func (a Algorithm) String() string {
	switch a {
	case ChordalSeq:
		return "chordal-seq"
	case ChordalComm:
		return "chordal-comm"
	case ChordalNoComm:
		return "chordal-nocomm"
	case RandomWalkSeq:
		return "randomwalk-seq"
	case RandomWalkPar:
		return "randomwalk-par"
	case ForestFireSeq:
		return "forestfire-seq"
	case ForestFirePar:
		return "forestfire-par"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Options configures a sampling run.
type Options struct {
	// Order is the vertex processing order (a permutation of 0..N-1). If
	// nil, the natural order is used.
	Order []int32
	// P is the number of simulated processors for parallel algorithms
	// (default 1).
	P int
	// Seed drives the random-walk filters.
	Seed int64
	// Model is the cost model driving the simulated runtime's virtual
	// clocks (nil selects comm.DefaultCostModel). The resulting
	// Stats.RankSeconds are in this model's units, so pass the same model
	// to CostModel.Time.
	Model *comm.CostModel
	// Comm overrides the communicator a parallel run executes on (nil
	// builds a fresh mpisim simulation over P ranks). internal/transport
	// passes its TCP communicator here so the same kernel closures run as
	// one rank of a genuinely distributed job; the communicator's size must
	// equal the partition count the run derives from Order and P.
	Comm comm.Comm
}

// newComm builds the runtime for a parallel run under opts: the injected
// communicator when one is set, otherwise a fresh mpisim simulation.
func newComm(opts Options, p int) comm.Comm {
	if opts.Comm != nil {
		if got := opts.Comm.P(); got != p {
			panic(fmt.Sprintf("sampling: injected communicator has %d ranks, partition has %d", got, p))
		}
		return opts.Comm
	}
	model := comm.DefaultCostModel()
	if opts.Model != nil {
		model = *opts.Model
	}
	return mpisim.NewCommModel(p, model)
}

// Result is the output of a sampling run.
type Result struct {
	// Algorithm that produced the result.
	Algorithm Algorithm
	// Subgraph is the sampled (filtered) subgraph over the input's vertex
	// universe, duplicates removed.
	Subgraph *graph.Graph
	// Stats feeds the comm cost model (per-rank ops, message/byte counts,
	// serial post-processing ops).
	Stats comm.RunStats
	// DuplicateBorderEdges counts border edges independently admitted by
	// more than one processor (removed during the sequential merge, as in
	// the paper).
	DuplicateBorderEdges int
	// BorderEdges is the number of cross-partition edges in the input.
	BorderEdges int
}

// Graph returns the sampled subgraph. n must be the input's vertex count,
// the universe Subgraph already spans.
func (r *Result) Graph(n int) *graph.Graph {
	if n != r.Subgraph.N() {
		panic(fmt.Sprintf("sampling: Graph(%d) of a result over %d vertices", n, r.Subgraph.N()))
	}
	return r.Subgraph
}

// sequentialResult wraps a one-rank run's edges, which may repeat, as a
// Result over g's vertex universe. The run hands over edges; they are
// sorted and deduplicated in place.
func sequentialResult(alg Algorithm, g *graph.Graph, edges []graph.Edge, ops, restarts int64) *Result {
	graph.SortEdges(edges)
	res := &Result{Algorithm: alg, Subgraph: keptSubgraph(g, slices.Compact(edges))}
	res.Stats.P = 1
	res.Stats.RankOps = []int64{ops}
	res.Stats.Restarts = restarts
	return res
}

// keptSubgraph is the CSR subgraph over g's vertex universe of the kept
// edges, which are normalized and strictly ascending. A filter that kept
// every edge of g returns g itself instead of a second, identical CSR: a
// Graph is immutable (its lazily built dense rows are guarded by a
// sync.Once), so the result may share it.
func keptSubgraph(g *graph.Graph, kept []graph.Edge) *graph.Graph {
	if g.EdgesEqual(kept) {
		return g
	}
	return graph.FromSortedEdges(g.N(), kept)
}

// Run applies the given filter to g.
func Run(alg Algorithm, g *graph.Graph, opts Options) (*Result, error) {
	return RunContext(context.Background(), alg, g, opts)
}

// RunContext is Run with cooperative cancellation. Sequential filters poll
// ctx inside their traversal loops; parallel filters additionally tie the
// simulated runtime to ctx (comm.Comm.AbortOnCancel), so ranks blocked in
// receives or the gather unwind promptly when ctx is cancelled. A
// cancelled run returns (nil, ctx.Err()) and leaks no goroutines; a
// completed run is identical to Run (the determinism contract is
// unaffected — ctx only decides whether the run finishes, never what it
// computes).
func RunContext(ctx context.Context, alg Algorithm, g *graph.Graph, opts Options) (*Result, error) {
	if opts.Order == nil {
		opts.Order = graph.NaturalOrder(g.N())
	}
	if !graph.IsPermutation(opts.Order, g.N()) {
		return nil, fmt.Errorf("sampling: order is not a permutation of 0..%d", g.N()-1)
	}
	if opts.P < 1 {
		opts.P = 1
	}
	switch alg {
	case ChordalSeq:
		return chordalSequential(ctx, g, opts)
	case ChordalComm:
		return chordalWithComm(ctx, g, opts)
	case ChordalNoComm:
		return chordalNoComm(ctx, g, opts)
	case RandomWalkSeq:
		return randomWalkSequential(ctx, g, opts)
	case RandomWalkPar:
		return randomWalkParallel(ctx, g, opts)
	case ForestFireSeq:
		return forestFireSequential(ctx, g, opts)
	case ForestFirePar:
		return forestFireParallel(ctx, g, opts)
	}
	return nil, fmt.Errorf("sampling: unknown algorithm %d", int(alg))
}

// abortIfCancelled unwinds the calling rank goroutine when ctx is
// cancelled; Comm.Run recovers the unwind and the sampler returns ctx.Err().
// Rank compute loops call this at coarse strides so a cancelled parallel
// run terminates promptly even when no rank is blocked in the runtime.
func abortIfCancelled(ctx context.Context, r comm.Rank) {
	if ctx.Err() != nil {
		r.Abort()
	}
}

// rankResult is a per-processor partial result, gathered to rank 0 by the
// runtime's Gatherv at the end of every parallel run. Operation counts and
// virtual clocks live in the communicator (charged via Rank.Compute).
type rankResult struct {
	edges    []graph.Edge // normalized (U < V), strictly ascending by CompareEdges
	restarts int64
}

// newRankResult sorts and deduplicates a rank's normalized edges once,
// right before they are gathered.
func newRankResult(edges []graph.Edge, restarts int64) rankResult {
	graph.SortEdges(edges)
	return rankResult{edges: slices.Compact(edges), restarts: restarts}
}

// payloadBytes is the modeled wire size of a gathered partial result: two
// int32 endpoints per edge.
func (pr rankResult) payloadBytes() int { return 8 * len(pr.edges) }

// runRanks executes kernel on every rank of partition pt and merges the
// partial results gathered to rank 0; border is the input's cross-partition
// edge count. A kernel returns its rank's partial result, or its own reason
// to fail the job, which unwinds the rank and wins over the runtime's
// failure; a cancellation wins over both, and only a clean run is merged.
func runRanks(ctx context.Context, alg Algorithm, g *graph.Graph, opts Options, pt *graph.Partition, border int,
	kernel func(r comm.Rank) (rankResult, error)) (*Result, error) {
	p := pt.P()
	parts := make([]rankResult, p)
	rankErrs := make([]error, p)
	cm := newComm(opts, p)
	defer cm.AbortOnCancel(ctx)()
	runErr := cm.Run(func(r comm.Rank) {
		mine, err := kernel(r)
		if err != nil {
			rankErrs[r.ID()] = err
			r.Abort()
		}
		rankErrs[r.ID()] = gatherParts(r, mine, parts)
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := errors.Join(rankErrs...); err != nil {
		return nil, err
	}
	if runErr != nil {
		return nil, runErr
	}
	return mergeParts(alg, g, parts, border, cm)
}

// gatherParts ends a rank's run: it gathers every rank's partial result to
// rank 0 through the runtime (charging the gather's modeled cost) and, on
// rank 0, scatters the payloads into parts for the sequential merge. A
// gathered payload that is not a partial result fails the job.
func gatherParts(r comm.Rank, mine rankResult, parts []rankResult) error {
	for rk, v := range r.Gatherv(mine, mine.payloadBytes()) {
		pr, ok := v.(rankResult)
		if !ok {
			return fmt.Errorf("sampling: rank %d gathered a %T from rank %d, want a partial result", r.ID(), v, rk)
		}
		parts[rk] = pr
	}
	return nil
}

// mergeParts unions the per-rank edge lists sequentially into one CSR
// subgraph of g (the paper notes the duplicate removal is done during the
// sequential analysis phase), counts duplicates, and copies the runtime's
// accounting (per-rank ops, virtual clocks, point-to-point and gather
// traffic) into the result stats. Every rank list is strictly ascending
// (newRankResult, and the rankResult decoder for a remote rank), so a
// k-way merge yields the union already sorted and the CSR is built without
// a sort, or not at all when the union is g's whole edge list
// (keptSubgraph). A remote rank's payload is untrusted: its decoder
// guarantees 0 ≤ U < V, and an edge beyond g's vertices is an error here,
// not a panic.
func mergeParts(alg Algorithm, g *graph.Graph, parts []rankResult, border int, cm comm.Comm) (*Result, error) {
	n := g.N()
	total := 0
	res := &Result{Algorithm: alg, BorderEdges: border}
	cm.FillStats(&res.Stats)
	for rk, pr := range parts {
		res.Stats.Restarts += pr.restarts
		for _, e := range pr.edges {
			if int(e.V) >= n {
				return nil, fmt.Errorf("sampling: rank %d returned edge (%d,%d) outside the %d-vertex graph", rk, e.U, e.V, n)
			}
		}
		total += len(pr.edges)
	}
	merged := mergeSorted(parts, total)
	res.Subgraph = keptSubgraph(g, merged)
	res.DuplicateBorderEdges = total - len(merged)
	res.Stats.SerialOps = int64(total)
	return res, nil
}

// mergeSorted k-way merges the ranks' strictly ascending edge lists,
// holding total edges, into one strictly ascending list, keeping one copy
// of an edge that several ranks hold. A binary min-heap holds one cursor
// per non-empty list, keyed by its head's graph.EdgeKey.
func mergeSorted(parts []rankResult, total int) []graph.Edge {
	type cursor struct {
		key  uint64
		rest []graph.Edge // rest[0] is the head
	}
	h := make([]cursor, 0, len(parts))
	for _, pr := range parts {
		if len(pr.edges) > 0 {
			h = append(h, cursor{graph.EdgeKey(pr.edges[0].U, pr.edges[0].V), pr.edges})
		}
	}
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && h[c+1].key < h[c].key {
				c++
			}
			if h[i].key <= h[c].key {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	out := make([]graph.Edge, 0, total)
	for len(h) > 0 {
		top := &h[0]
		if e := top.rest[0]; len(out) == 0 || out[len(out)-1] != e {
			out = append(out, e)
		}
		if top.rest = top.rest[1:]; len(top.rest) > 0 {
			top.key = graph.EdgeKey(top.rest[0].U, top.rest[0].V)
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
	return out
}
