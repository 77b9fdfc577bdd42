// Package parsample is the public facade of the parallel adaptive sampling
// library, a reproduction of Cooper (Dempsey), Duraisamy, Bhowmick & Ali,
// "The Development of Parallel Adaptive Sampling Algorithms for Analyzing
// Biological Networks" (IPDPS Workshops 2012).
//
// The pipeline mirrors the paper:
//
//	expression matrix ─Pearson→ correlation network ─order→ chordal filter
//	  ─MCODE→ clusters ─GO edge enrichment→ AEES scores ─overlap→ validation
//
// Every network is a compressed-sparse-row (CSR) Graph: one flat int32
// neighbor arena plus per-vertex offsets, built exactly once by a Builder
// that sorts and deduplicates the staged edge list. The combinatorial
// kernels (DSW chordal extraction, MCODE, Bron–Kerbosch) run on bitset
// candidate/membership sets over that arena, and block partitions hand each
// simulated processor a contiguous arena slice — the layout the parallel
// and (future) sharded execution paths rely on.
//
// Quick use:
//
//	g, _ := parsample.ReadNetwork(f)
//	filtered, _ := parsample.FilterContext(ctx, g, parsample.FilterOptions{
//	        Algorithm: parsample.ChordalNoComm,
//	        Ordering:  parsample.HighDegree,
//	        P:         8,
//	})
//	clusters, _ := parsample.ClustersContext(ctx, filtered.Subgraph, parsample.ClusterParams{})
//
// Networks built in memory go through NewBuilder:
//
//	b := parsample.NewBuilder(4)
//	b.AddEdge(0, 1)
//	b.AddEdge(1, 2)
//	g := b.Build() // sorted, deduplicated CSR
//
// End-to-end runs (network source → filter → clusters → scores) go through
// a Pipeline (New, with functional options), which executes versioned
// wire-form api.Request/api.Response pairs (Pipeline.Do, DESIGN.md §6) on
// a memoizing artifact store shared by every concurrent request (DESIGN.md
// §5):
//
//	resp, _ := parsample.New().Do(ctx, &api.Request{
//	        Network: api.NetworkSource{Synthesis: &api.SynthesisSpec{Genes: 2048, Samples: 64, Seed: 1}},
//	        Filter:  api.FilterSpec{Algorithm: "chordal-nocomm", Ordering: "HD", P: 8},
//	})
//
// `parsample serve` serves the same schema over HTTP.
//
// See the examples/ directory for full end-to-end programs and
// internal/experiments for the drivers that regenerate every figure of the
// paper's evaluation.
package parsample

import (
	"context"
	"io"
	"sync"

	"parsample/internal/analysis"
	"parsample/internal/chordal"
	"parsample/internal/expr"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/ontology"
	"parsample/internal/pipeline"
	"parsample/internal/sampling"
)

// Re-exported core types. (Aliases keep one set of concrete types across the
// library; the canonical definitions live in the internal packages.)
type (
	// Graph is a simple undirected network over dense int32 vertex ids.
	Graph = graph.Graph
	// Edge is a normalized undirected edge (U < V).
	Edge = graph.Edge
	// Builder accumulates edges and emits an immutable CSR Graph.
	Builder = graph.Builder
	// Ordering selects a vertex processing order (Natural, HighDegree,
	// LowDegree, RCM, RandomOrder).
	Ordering = graph.Ordering
	// Algorithm selects a sampling filter.
	Algorithm = sampling.Algorithm
	// Result is the output of a sampling run, including parallel telemetry.
	Result = sampling.Result
	// Cluster is one MCODE complex.
	Cluster = mcode.Cluster
	// ScoredCluster couples a cluster with its GO edge-enrichment summary.
	ScoredCluster = analysis.ScoredCluster
	// Matrix is a genes × samples expression matrix.
	Matrix = expr.Matrix
	// NetworkOptions configures correlation-network construction (statistic,
	// thresholds, workers). Negative MinAbsR/MaxP select the paper defaults;
	// zero is honored literally — see expr.NetworkOptions.
	NetworkOptions = expr.NetworkOptions
	// CorrelationKind selects Pearson or Spearman correlation.
	CorrelationKind = expr.CorrelationKind
	// DAG is a GO-like ontology.
	DAG = ontology.DAG
	// Annotations maps genes to ontology terms.
	Annotations = ontology.Annotations
	// ClusterParams configures MCODE clustering (the zero value selects the
	// paper's defaults in pipeline runs; see mcode.Params).
	ClusterParams = mcode.Params
	// PipelineStats is a snapshot of a Pipeline's artifact-store counters.
	PipelineStats = pipeline.StoreStats
)

// Orderings studied in the paper.
const (
	Natural     = graph.Natural
	HighDegree  = graph.HighDegree
	LowDegree   = graph.LowDegree
	RCM         = graph.RCM
	RandomOrder = graph.RandomOrder
)

// Correlation statistics for network construction.
const (
	// PearsonCorr is Pearson's product-moment correlation (the paper's
	// choice).
	PearsonCorr = expr.PearsonCorr
	// SpearmanCorr is Spearman rank correlation, robust to outliers and
	// monotone nonlinearity.
	SpearmanCorr = expr.SpearmanCorr
)

// Sampling algorithms.
const (
	// ChordalSeq is the sequential maximal chordal subgraph filter
	// (Dearing–Shier–Warner).
	ChordalSeq = sampling.ChordalSeq
	// ChordalComm is the earlier parallel chordal filter with border-edge
	// communication.
	ChordalComm = sampling.ChordalComm
	// ChordalNoComm is the paper's improved communication-free parallel
	// chordal filter.
	ChordalNoComm = sampling.ChordalNoComm
	// RandomWalkSeq is the sequential random-walk control filter.
	RandomWalkSeq = sampling.RandomWalkSeq
	// RandomWalkPar is the parallel random-walk control filter.
	RandomWalkPar = sampling.RandomWalkPar
)

// FilterOptions configures FilterContext.
type FilterOptions struct {
	// Algorithm selects the filter (default ChordalNoComm).
	Algorithm Algorithm
	// Ordering selects the vertex processing order (default Natural).
	Ordering Ordering
	// P is the number of simulated processors (default 1).
	P int
	// Seed drives randomized filters and RandomOrder.
	//
	// Determinism contract: a FilterContext run is a pure function of
	// (graph, Algorithm, Ordering, P, Seed) — independent of GOMAXPROCS
	// and repeatable across runs. The RandomOrder shuffle and the
	// randomized samplers draw from independent streams derived from Seed
	// by SplitMix64 over a per-purpose tag, so the vertex order never
	// correlates with the walk (and a future consumer added under a new
	// tag will not perturb existing results).
	Seed int64
}

// Stream tags for splitSeed; each Seed consumer gets its own tag.
const (
	seedPurposeOrder   = 0x4f524452 // "ORDR"
	seedPurposeSampler = 0x53414d50 // "SAMP"
)

// splitSeed derives an independent stream seed from (seed, purpose) with
// the SplitMix64 finalizer over seed ‖ purpose. Feeding the raw Seed to
// both the ordering shuffle and the sampler RNG would correlate the two
// streams (the same source drives which vertices come first and where the
// walk goes); hashing a distinct purpose tag into each consumer breaks the
// coupling while keeping every stream a deterministic function of Seed.
func splitSeed(seed int64, purpose uint64) int64 {
	return int64(graph.SplitMix64(uint64(seed) + purpose*0x9e3779b97f4a7c15))
}

// FilterContext applies a sampling filter to the network. ctx cancels the
// run mid-kernel (sequential filters poll it in their traversal loops;
// parallel filters abort their simulated ranks); a cancelled run returns
// ctx.Err(). A completed run honors the determinism contract documented on
// FilterOptions.Seed.
func FilterContext(ctx context.Context, g *Graph, opts FilterOptions) (*Result, error) {
	ord := graph.Order(g, opts.Ordering, splitSeed(opts.Seed, seedPurposeOrder))
	return sampling.RunContext(ctx, opts.Algorithm, g, sampling.Options{
		Order: ord,
		P:     opts.P,
		Seed:  splitSeed(opts.Seed, seedPurposeSampler),
	})
}

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// MaximalChordalSubgraph extracts a maximal chordal subgraph of g under the
// given ordering and returns it as a CSR graph built from the DSW edge
// list.
func MaximalChordalSubgraph(g *Graph, o Ordering, seed int64) *Graph {
	res := chordal.MaximalSubgraph(g, graph.Order(g, o, seed))
	return graph.FromEdges(g.N(), res.Edges)
}

// IsChordal reports whether g is a chordal graph.
func IsChordal(g *Graph) bool { return chordal.IsChordal(g) }

// ClustersContext runs MCODE on the network. The zero ClusterParams value
// selects the paper's defaults (score ≥ 3.0, size ≥ 4, haircut on); any
// non-zero value is passed through to the kernel. ctx cancels the run
// mid-pass with ctx.Err().
func ClustersContext(ctx context.Context, g *Graph, p ClusterParams) ([]Cluster, error) {
	if p == (ClusterParams{}) {
		p = mcode.DefaultParams()
	}
	return mcode.FindClustersContext(ctx, g, p)
}

// ScoreClustersContext annotates clusters against an ontology, producing
// AEES scores (edge enrichment: DCP depth − term breadth, averaged over
// cluster edges). ctx cancels the run between clusters with ctx.Err().
func ScoreClustersContext(ctx context.Context, d *DAG, a *Annotations, g *Graph, clusters []Cluster) ([]ScoredCluster, error) {
	return analysis.ScoreClustersContext(ctx, d, a, g, clusters)
}

// DefaultNetworkOptions returns the paper's correlation-network
// configuration: Pearson, ρ ≥ 0.95, p ≤ 0.0005.
func DefaultNetworkOptions() NetworkOptions { return expr.DefaultNetworkOptions() }

// BuildCorrelationNetworkContext computes all-pairs correlations (Pearson
// or Spearman per opts.Kind) of the expression matrix on the
// standardized-row engine — every gene row is z-scored once so each pair is
// a single dot product, and the p-value cut is inverted into a critical |r|
// before the tiled parallel sweep — then thresholds them into a network.
// Use DefaultNetworkOptions for the paper's thresholds. ctx cancels the
// sweep at tile claims with ctx.Err().
func BuildCorrelationNetworkContext(ctx context.Context, m *Matrix, opts NetworkOptions) (*Graph, error) {
	return expr.BuildNetworkContext(ctx, m, opts)
}

// Pipeline is the reusable, concurrency-safe form of the end-to-end run: a
// typed stage-graph engine (internal/pipeline) whose artifact store
// memoizes every stage under deterministic keys, deduplicates concurrent
// identical requests (singleflight), and evicts least-recently-used
// artifacts under a byte budget. Many goroutines may call Do
// simultaneously; overlapping requests share work and cache.
type Pipeline struct {
	eng      *pipeline.Engine
	datasets map[string]bool // WithDatasets restriction; nil serves all
	loaders  sync.Map        // api.Request fingerprint → source loader of a running request
}

// New creates a Pipeline. With no options it serves every built-in dataset
// lazily, budgets the artifact store at 256 MiB, and bounds stage kernels
// at GOMAXPROCS:
//
//	p := parsample.New(
//	        parsample.WithCacheBytes(1<<30),
//	        parsample.WithWorkers(8),
//	        parsample.WithDatasets("YNG", "CRE"),
//	)
func New(opts ...Option) *Pipeline {
	var s pipelineSettings
	for _, o := range opts {
		o(&s)
	}
	p := &Pipeline{eng: pipeline.New(pipeline.Config{
		MaxBytes:  s.cacheBytes,
		Workers:   s.workers,
		CacheDir:  s.cacheDir,
		DiskBytes: s.diskCacheBytes,
	})}
	if s.datasets != nil {
		p.datasets = make(map[string]bool, len(s.datasets))
		for _, n := range s.datasets {
			p.datasets[n] = true
		}
		for n := range p.datasets {
			// Pre-build so the first request doesn't pay synthesis latency.
			if _, ok := p.datasetFor(n); !ok {
				delete(p.datasets, n)
			}
		}
	}
	return p
}

// Stats returns the artifact-store counters (hits, misses, in-flight joins,
// evictions, resident bytes, and — with WithCacheDir — the disk tier's
// hit/write-behind counters).
func (p *Pipeline) Stats() PipelineStats { return p.eng.Stats() }

// Close flushes the persistent tier's pending write-behind snapshots and
// stops its background writer. A no-op without WithCacheDir; the Pipeline
// remains usable afterwards (artifacts just stop being persisted). Servers
// should call it after draining, so work computed just before a restart is
// disk-warm after it.
func (p *Pipeline) Close() { p.eng.Close() }

// ReadNetwork parses a whitespace edge list (one "u v" pair per line, '#'
// comments, optional "# n m" header).
func ReadNetwork(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteNetwork writes g in the edge-list format accepted by ReadNetwork.
func WriteNetwork(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// DOTOptions configures WriteDOT (graph name, vertex groups to highlight).
type DOTOptions = graph.DOTOptions

// WriteDOT writes g as a Graphviz DOT document.
func WriteDOT(w io.Writer, g *Graph, opts DOTOptions) error { return graph.WriteDOT(w, g, opts) }
