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
// End-to-end runs (matrix or network → filter → clusters → scores) go
// through RunPipeline, or through a reusable Pipeline (New, with functional
// options) whose memoizing artifact store serves many concurrent requests
// (see the Pipeline type and DESIGN.md §5). A Pipeline also executes the
// versioned wire-form api.Request/api.Response pairs of the service API
// (Pipeline.Do, DESIGN.md §6); cmd/parsampled serves that schema over
// HTTP.
//
// See the examples/ directory for full end-to-end programs and
// internal/experiments for the drivers that regenerate every figure of the
// paper's evaluation.
package parsample

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

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
	// Bitset is a flat-word vertex set, the membership structure used by the
	// dense kernels.
	Bitset = graph.Bitset
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
	// Precision selects the correlation sweep's arena width (Float64 or
	// Float32). A pure speed/memory knob: the float32 engine re-decides
	// near-threshold pairs in float64, so the network is byte-identical.
	Precision = expr.Precision
	// SweepPoint is one row of a correlation-threshold sweep.
	SweepPoint = expr.SweepPoint
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

// Sweep-arena precisions for NetworkOptions.Precision.
const (
	// Float64 is the default double-precision sweep arena.
	Float64 = expr.Float64
	// Float32 halves arena bytes and doubles SIMD lanes; identical results.
	Float32 = expr.Float32
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

// FilterOptions configures Filter.
type FilterOptions struct {
	// Algorithm selects the filter (default ChordalNoComm).
	Algorithm Algorithm
	// Ordering selects the vertex processing order (default Natural).
	Ordering Ordering
	// P is the number of simulated processors (default 1).
	P int
	// Seed drives randomized filters and RandomOrder.
	//
	// Determinism contract: a Filter run is a pure function of
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

// Filter applies a sampling filter to the network.
//
// Deprecated: use FilterContext, which can be cancelled mid-kernel. Filter
// is FilterContext with context.Background().
func Filter(g *Graph, opts FilterOptions) (*Result, error) {
	return FilterContext(context.Background(), g, opts)
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

// Clusters runs MCODE with the paper's default parameters (score ≥ 3.0).
//
// Deprecated: use ClustersContext, which can be cancelled and takes
// explicit parameters (pass the zero ClusterParams for these defaults).
func Clusters(g *Graph) []Cluster {
	return mcode.FindClusters(g, mcode.DefaultParams())
}

// ClustersWithParams runs MCODE with explicit parameters.
//
// Deprecated: use ClustersContext. Note the semantic difference for the
// zero value: ClustersWithParams(g, ClusterParams{}) resolves per-field
// kernel defaults with the haircut OFF, while ClustersContext treats the
// zero value as the paper's full default set (haircut on).
func ClustersWithParams(g *Graph, p mcode.Params) []Cluster {
	return mcode.FindClusters(g, p)
}

// ScoreClustersContext annotates clusters against an ontology, producing
// AEES scores (edge enrichment: DCP depth − term breadth, averaged over
// cluster edges). ctx cancels the run between clusters with ctx.Err().
func ScoreClustersContext(ctx context.Context, d *DAG, a *Annotations, g *Graph, clusters []Cluster) ([]ScoredCluster, error) {
	return analysis.ScoreClustersContext(ctx, d, a, g, clusters)
}

// ScoreClusters annotates clusters against an ontology.
//
// Deprecated: use ScoreClustersContext, which can be cancelled.
func ScoreClusters(d *DAG, a *Annotations, g *Graph, clusters []Cluster) []ScoredCluster {
	return analysis.ScoreClusters(d, a, g, clusters)
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

// BuildCorrelationNetwork builds the thresholded correlation network.
//
// Deprecated: use BuildCorrelationNetworkContext, which can be cancelled
// mid-sweep.
func BuildCorrelationNetwork(m *Matrix, opts NetworkOptions) *Graph {
	return expr.BuildNetwork(m, opts)
}

// CorrelationThresholdSweep sizes the correlation network at each |ρ|
// threshold from one all-pairs pass (the edge-count cliff behind the
// paper's 0.95 choice).
func CorrelationThresholdSweep(m *Matrix, thresholds []float64, opts NetworkOptions) []SweepPoint {
	return expr.ThresholdSweep(m, thresholds, opts)
}

// ------------------------------------------------------------- the pipeline

// PipelineInput is one end-to-end request: a network (or an expression
// matrix to build one from), a filter configuration, and optionally an
// ontology to score clusters against.
type PipelineInput struct {
	// Name uniquely identifies the input data and namespaces its cached
	// artifacts. Two runs against one Pipeline with the same Name are
	// assumed to carry the same Graph/Matrix/DAG/Ann. Required for
	// Pipeline.Run. RunPipeline ignores that contract: it always prefixes
	// Name with a content fingerprint of the data, so one-shot runs on the
	// process-shared engine can never collide however Name is (re)used.
	Name string
	// Graph is the input network. Leave nil to build it from Matrix.
	Graph *Graph
	// Matrix is the expression matrix used when Graph is nil.
	Matrix *Matrix
	// Network configures correlation-network construction from Matrix
	// (NetworkOptions semantics; start from DefaultNetworkOptions for the
	// paper's thresholds).
	Network NetworkOptions
	// Filter selects the sampling algorithm, ordering, processor count and
	// seed. As in Filter, the ordering shuffle and the samplers draw from
	// decorrelated streams derived from Filter.Seed.
	Filter FilterOptions
	// DAG and Ann enable the scoring stage when both are set.
	DAG *DAG
	Ann *Annotations
	// Clusters configures MCODE (zero value: the paper's defaults).
	Clusters ClusterParams
}

// StageTiming is one engine request observed during a pipeline run.
type StageTiming struct {
	// Stage is the stage name: network, order, filter, cluster, score.
	Stage string
	// Variant is "orig" or "ordering/algorithm/P".
	Variant string
	// Source is "computed", "hit", "shared" (joined another request's
	// in-flight computation) or "disk" (loaded from the persistent tier).
	Source string
	// Duration is the request's wall time (≈ 0 for hits).
	Duration time.Duration
}

// PipelineResult is the output of one end-to-end run.
type PipelineResult struct {
	// Network is the input (or built correlation) network.
	Network *Graph
	// Filter is the sampling run, including parallel telemetry.
	Filter *Result
	// Filtered is the sampled subgraph.
	Filtered *Graph
	// Clusters are the MCODE complexes of the filtered network.
	Clusters []Cluster
	// Scored is Clusters scored against the ontology (nil unless DAG and
	// Ann were provided).
	Scored []ScoredCluster
	// Timings lists the engine requests of this run in completion order.
	Timings []StageTiming
}

// PipelineConfig parameterizes a reusable Pipeline.
//
// Deprecated: use New with functional options (WithCacheBytes,
// WithWorkers, WithDatasets).
type PipelineConfig struct {
	// CacheBytes is the artifact-store budget (0: a 256 MiB default).
	CacheBytes int64
	// Workers bounds concurrently executing stage kernels (0: GOMAXPROCS).
	Workers int
}

// Pipeline is the reusable, concurrency-safe form of the end-to-end run: a
// typed stage-graph engine (internal/pipeline) whose artifact store
// memoizes every stage under deterministic keys, deduplicates concurrent
// identical requests (singleflight), and evicts least-recently-used
// artifacts under a byte budget. Many goroutines may call Run (struct
// inputs) or Do (wire-form api.Request) simultaneously; overlapping
// requests share work and cache.
type Pipeline struct {
	eng      *pipeline.Engine
	datasets map[string]bool // WithDatasets restriction; nil serves all
	resolver resolverCache   // api.Request fingerprint → resolved input
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
		MaxBytes:    s.cacheBytes,
		Workers:     s.workers,
		BatchWindow: s.batchWindow,
		CacheDir:    s.cacheDir,
		DiskBytes:   s.diskCacheBytes,
	})}
	p.resolver.init(resolverCacheCap)
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

// NewPipeline creates a Pipeline.
//
// Deprecated: use New with WithCacheBytes and WithWorkers.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	return New(WithCacheBytes(cfg.CacheBytes), WithWorkers(cfg.Workers))
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

// Run executes the pipeline end to end: network → order → filter → cluster
// (→ score when an ontology is present). ctx cancels the run mid-kernel;
// a cancelled run returns ctx.Err(), leaves no partial artifacts in the
// store, and leaks no goroutines.
func (p *Pipeline) Run(ctx context.Context, in PipelineInput) (*PipelineResult, error) {
	if in.Name == "" {
		return nil, fmt.Errorf("parsample: PipelineInput.Name is required (it namespaces cached artifacts)")
	}
	if in.Graph == nil && in.Matrix == nil {
		return nil, fmt.Errorf("parsample: pipeline input %q has neither a network nor a matrix", in.Name)
	}
	pin := pipeline.Input{
		Name:       in.Name,
		G:          in.Graph,
		Matrix:     in.Matrix,
		Net:        in.Network,
		DAG:        in.DAG,
		Ann:        in.Ann,
		MCODE:      in.Clusters,
		OrderSeed:  splitSeed(in.Filter.Seed, seedPurposeOrder),
		FilterSeed: splitSeed(in.Filter.Seed, seedPurposeSampler),
	}
	v := pipeline.Variant{Ordering: in.Filter.Ordering, Algorithm: in.Filter.Algorithm, P: in.Filter.P}
	if v.P < 1 {
		v.P = 1 // normalized so P=0 and P=1 share one cache key
	}
	ctx, trace := pipeline.WithTrace(ctx)
	net, err := p.eng.Network(ctx, pin)
	if err != nil {
		return nil, err
	}
	filt, err := p.eng.Filtered(ctx, pin, v)
	if err != nil {
		return nil, err
	}
	clusters, err := p.eng.Clusters(ctx, pin, v)
	if err != nil {
		return nil, err
	}
	res := &PipelineResult{
		Network:  net,
		Filter:   filt,
		Filtered: filt.Subgraph,
		Clusters: clusters,
	}
	if in.DAG != nil && in.Ann != nil {
		if res.Scored, err = p.eng.Scored(ctx, pin, v); err != nil {
			return nil, err
		}
	}
	for _, e := range trace.Entries() {
		res.Timings = append(res.Timings, StageTiming{
			Stage:    e.Key.Stage.String(),
			Variant:  e.Key.Variant.String(),
			Source:   e.Source.String(),
			Duration: e.Duration,
		})
	}
	return res, nil
}

// sharedPipeline is the lazily initialized engine behind RunPipeline.
// One-shot runs used to allocate a fresh 256 MiB-budget engine per call;
// sharing one process-wide engine means repeated one-shot runs over the
// same data are warm hits and concurrent identical runs deduplicate. The
// tradeoff: RunPipeline results can now be served from cache, so the
// artifacts of a prior call (bounded by the 256 MiB LRU budget) stay
// resident between calls — byte-identical to a fresh computation, because
// every stage kernel is a pure function of its input data and seeds, with
// inputs namespaced by content fingerprint so distinct data can never
// collide. Callers that want an isolated or differently-budgeted store
// hold their own New() pipeline.
var sharedPipeline = sync.OnceValue(func() *Pipeline { return New() })

// RunPipeline is the one-call end-to-end run:
//
//	res, err := parsample.RunPipeline(ctx, parsample.PipelineInput{
//	        Matrix:  m,
//	        Network: parsample.DefaultNetworkOptions(),
//	        Filter:  parsample.FilterOptions{Algorithm: parsample.ChordalNoComm, Ordering: parsample.HighDegree, P: 8},
//	})
//
// It executes on a lazily initialized, process-shared Pipeline, so
// repeated and concurrent one-shot runs share the artifact store. The
// cache namespace is always derived from a content fingerprint of the
// input data (graph or matrix, plus ontology) — one hash pass over the
// input per call, which is what makes the shared store collision-free: a
// caller-supplied Name is folded into the fingerprint namespace rather
// than trusted alone, so reusing a Name across calls with different data
// (safe under the old fresh-engine-per-call behavior) can never serve the
// wrong artifacts. Callers serving many requests should hold a Pipeline
// from New and call Run or Do directly.
func RunPipeline(ctx context.Context, in PipelineInput) (*PipelineResult, error) {
	if fp := fingerprintInput(&in); in.Name == "" {
		in.Name = fp
	} else {
		in.Name = fp + "/" + in.Name
	}
	return sharedPipeline().Run(ctx, in)
}

// ReadNetwork parses a whitespace edge list (one "u v" pair per line, '#'
// comments, optional "# n m" header).
func ReadNetwork(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// WriteNetwork writes g in the edge-list format accepted by ReadNetwork.
func WriteNetwork(w io.Writer, g *Graph) error { return graph.WriteEdgeList(w, g) }

// DOTOptions configures WriteDOT (graph name, vertex groups to highlight).
type DOTOptions = graph.DOTOptions

// WriteDOT writes g as a Graphviz DOT document.
func WriteDOT(w io.Writer, g *Graph, opts DOTOptions) error { return graph.WriteDOT(w, g, opts) }
