// Package pipeline is the typed stage-graph engine behind the paper's
// end-to-end pipeline:
//
//	expression matrix ─BuildNetwork→ correlation network ─Order→ vertex order
//	  ─Filter→ sampled network ─Cluster→ MCODE complexes ─Score→ AEES
//	  ─Match→ original-vs-filtered match table
//
// Each stage is one row of the stage table (its trace name, artifact size
// estimate and snapshot codec) and one Engine method that names the
// artifact's deterministic cache key (a pure function of the input name,
// the stage parameters and the seeds — see Key), resolves its dependencies
// and runs its kernel through stage(). The Engine serves artifacts from a
// keyed artifact store with singleflight deduplication, LRU byte-budget
// eviction and hit/miss counters (Store). Stage kernels run under a bounded
// concurrency budget and take a context.Context end-to-end, so a request
// can be cancelled mid-kernel without poisoning the store or leaking
// goroutines. The figure drivers in internal/experiments, the public
// parsample.Pipeline facade and the `parsample pipeline` subcommand all run
// on this engine.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"parsample/internal/analysis"
	"parsample/internal/datasets"
	"parsample/internal/diskstore"
	"parsample/internal/expr"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/ontology"
	"parsample/internal/sampling"
	"parsample/internal/snapshot"
)

// Stage identifies one node of the stage graph.
type Stage uint8

const (
	// StageNetwork builds (or adopts) the input network.
	StageNetwork Stage = iota
	// StageOrder computes a vertex processing order over the network.
	StageOrder
	// StageFilter applies a sampling filter under an order.
	StageFilter
	// StageCluster runs MCODE on a network variant.
	StageCluster
	// StageScore scores a variant's clusters against the ontology.
	StageScore
	// StageMatch matches a filtered variant's scored clusters against the
	// original network's.
	StageMatch
)

// String returns the stage name used in traces.
func (s Stage) String() string {
	if int(s) < len(stages) {
		return stages[s].name
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// stageDef is one row of the stage table: the stage's trace name, the
// resident byte estimate of its artifacts, and their snapshot codec. The
// store sizes computed and disk-loaded artifacts with the same size
// function, so LRU accounting does not depend on where an artifact came
// from.
type stageDef struct {
	name   string
	size   func(any) int64
	encode func(any) ([]byte, error)
	decode func([]byte) (any, int64, error)
}

// entryBytes is the fixed resident charge of one stored artifact on top of
// its payload estimate: the entry, its key, its LRU element and the
// artifact's headers, about half a kilobyte measured on the heap. Without
// it an empty cluster, score or match list would cost nothing and the byte
// budget could never evict it.
const entryBytes int64 = 512

// def builds a table row from a stage's typed size and codec functions;
// the row's size adds entryBytes to the payload estimate. encode runs on
// the disk tier's write-behind goroutine, so a wrong-typed value is an
// error there, never a panic.
func def[T any](name string, size func(T) int64, enc func(T) []byte, dec func([]byte) (T, error)) stageDef {
	charge := func(t T) int64 { return entryBytes + size(t) }
	return stageDef{
		name: name,
		size: func(v any) int64 { return charge(v.(T)) },
		encode: func(v any) ([]byte, error) {
			t, ok := v.(T)
			if !ok {
				return nil, fmt.Errorf("pipeline: %s artifact is %T", name, v)
			}
			return enc(t), nil
		},
		decode: func(data []byte) (any, int64, error) {
			t, err := dec(data)
			if err != nil {
				return nil, 0, err
			}
			return t, charge(t), nil
		},
	}
}

// stages is the stage table, indexed by Stage.
var stages = [...]stageDef{
	StageNetwork: def("network", graphBytes, snapshot.EncodeGraph, snapshot.DecodeGraph),
	StageOrder:   def("order", orderBytes, snapshot.EncodeOrder, snapshot.DecodeOrder),
	StageFilter:  def("filter", filteredBytes, snapshot.EncodeFiltered, snapshot.DecodeFiltered),
	StageCluster: def("cluster", clustersBytes, snapshot.EncodeClusters, snapshot.DecodeClusters),
	StageScore:   def("score", scoredBytes, snapshot.EncodeScored, snapshot.DecodeScored),
	StageMatch:   def("match", matchesBytes, snapshot.EncodeMatches, snapshot.DecodeMatches),
}

// Variant selects which network variant of an input an artifact describes:
// the unfiltered original, or the output of one sampling filter under one
// ordering and processor count.
type Variant struct {
	Ordering  graph.Ordering
	Algorithm sampling.Algorithm
	P         int
}

// Original is the unfiltered input network.
var Original = Variant{Ordering: -1, Algorithm: -1, P: 0}

// IsOriginal reports whether v denotes the unfiltered network.
func (v Variant) IsOriginal() bool { return v == Original }

// String returns "orig", the bare ordering name (order-stage variants have
// no algorithm), or "ordering/algorithm/P".
func (v Variant) String() string {
	if v.IsOriginal() {
		return "orig"
	}
	if v.Algorithm < 0 {
		return v.Ordering.String()
	}
	return fmt.Sprintf("%s/%s/P%d", v.Ordering, v.Algorithm, v.P)
}

// Key is the deterministic identity of one artifact. It is a pure function
// of the input (by name), the stage, the variant and the stage parameters —
// per the determinism contract every kernel honors (a run is a pure
// function of its inputs and seed, independent of GOMAXPROCS), equal keys
// denote byte-identical artifacts. The caller's side of the contract is
// that Input.Name uniquely identifies the input data (see Input.Name).
type Key struct {
	// Input is the input's Name.
	Input string
	// Stage is the stage-graph node.
	Stage Stage
	// Variant is the network variant the artifact belongs to. Network-stage
	// artifacts always use Original.
	Variant Variant
	// OrderSeed and FilterSeed are the seeds of the ordering shuffle and the
	// randomized samplers; zero where the artifact does not depend on them
	// (see Input.key).
	OrderSeed, FilterSeed int64
	// Net is the normalized network construction config (Workers and
	// Precision zeroed: results are worker-independent and Precision is
	// ignored, so keys built before it was ignored still match).
	Net expr.NetworkOptions
	// MCODE is the normalized clustering config; zero in network, order and
	// filter keys.
	MCODE mcode.Params
}

// Input is one dataset the engine can serve artifacts for.
type Input struct {
	// Name must uniquely identify the input data (and is the cache-key
	// namespace): two Inputs with equal names, seeds and options are assumed
	// to carry the same Graph/Matrix/DAG/Ann. The four evaluation datasets
	// use their paper names; file-driven callers use the file path.
	Name string
	// G is an adopted network, served by the network stage as is. When nil,
	// Load must be set.
	G *graph.Graph
	// Load materializes the input's source (used when G is nil). Only a
	// stage that misses calls it, outside its worker slot: the network stage
	// stores Data.G as its artifact, or sweeps Data.Matrix under Net, and
	// the score stage takes Data.DAG and Data.Ann when DAG is nil. Callers
	// make it return one result however often it is called (sync.OnceValues):
	// the loader of one request serves all of its stages.
	Load func() (Data, error)
	// Net configures correlation-network construction from a loaded Matrix.
	Net expr.NetworkOptions
	// DAG and Ann are the ontology side; required by Score and Match unless
	// Load supplies them.
	DAG *ontology.DAG
	Ann *ontology.Annotations
	// MCODE configures clustering. The zero value selects the paper's
	// defaults (mcode.DefaultParams).
	MCODE mcode.Params
	// OrderSeed seeds the ordering shuffle; FilterSeed the randomized
	// samplers. The figure drivers use the dataset seed for both (the
	// historical driver behavior); parsample.Pipeline derives decorrelated
	// streams per its documented contract.
	OrderSeed, FilterSeed int64
}

// Data is an input's materialized source: a parsed network or an
// expression matrix, and the ontology that comes with it, if any.
type Data struct {
	G      *graph.Graph
	Matrix *expr.Matrix
	DAG    *ontology.DAG
	Ann    *ontology.Annotations
}

// FromDataset adapts one of the paper's evaluation datasets, using the
// dataset seed for both seed streams — exactly what the pre-engine figure
// drivers did, so engine-produced figures are byte-identical to theirs.
func FromDataset(ds *datasets.Dataset) Input {
	return Input{
		Name:       ds.Name,
		G:          ds.G,
		DAG:        ds.DAG,
		Ann:        ds.Ann,
		OrderSeed:  ds.Seed,
		FilterSeed: ds.Seed,
	}
}

// key builds the artifact key for one stage of this input. A key carries
// only what its artifact depends on, so requests that differ in a later
// stage's parameters share the earlier artifacts: the network depends on
// the input and Net; an order adds its ordering, and its seed only for
// RAND (the one ordering that reads it); a filter adds its algorithm, P
// and seed; cluster, score and match artifacts add MCODE. Original-variant
// artifacts carry neither seed.
func (in Input) key(s Stage, v Variant) Key {
	k := Key{Input: in.Name, Stage: s, Variant: v, Net: in.Net}
	k.Net.Workers = 0
	k.Net.Precision = 0
	if v.Ordering == graph.RandomOrder {
		k.OrderSeed = in.OrderSeed
	}
	if v.Algorithm >= 0 {
		k.FilterSeed = in.FilterSeed
	}
	if s >= StageCluster {
		k.MCODE = in.mcodeParams()
	}
	return k
}

// mcodeParams resolves the input's clustering config.
func (in Input) mcodeParams() mcode.Params {
	if in.MCODE == (mcode.Params{}) {
		return mcode.DefaultParams()
	}
	return in.MCODE
}

// Config parameterizes an Engine.
type Config struct {
	// MaxBytes is the artifact store budget (≤ 0 → DefaultStoreBytes).
	MaxBytes int64
	// Workers bounds concurrently running stage kernels across all requests
	// (≤ 0 → GOMAXPROCS). Dependency resolution never holds a worker slot,
	// so nested stages cannot deadlock the budget.
	Workers int
	// CacheDir, when set, enables the persistent artifact tier: computed
	// artifacts are written behind to content-addressed snapshot blobs
	// under this directory, and store misses probe it before computing
	// (memory → disk → compute). The directory may be shared by any number
	// of replicas — publication is atomic-rename, so concurrent writers
	// are safe (DESIGN.md §10). Empty disables the tier.
	CacheDir string
	// DiskBytes is the cache directory's pruning budget (≤ 0 → 1 GiB).
	// Only meaningful with CacheDir.
	DiskBytes int64
}

// Engine executes stage-graph requests over a shared artifact store.
// All methods are safe for concurrent use.
type Engine struct {
	store  *Store
	sem    chan struct{}
	sweeps atomic.Int64 // correlation sweeps computed by the network stage
}

// New creates an engine. A Config.CacheDir that cannot be created or
// scanned panics — callers that want an error instead (the daemon's flag
// path) validate the directory first or use NewWithDisk.
func New(cfg Config) *Engine {
	e, err := NewWithDisk(cfg)
	if err != nil {
		panic(fmt.Sprintf("pipeline: cache dir %q: %v", cfg.CacheDir, err))
	}
	return e
}

// NewWithDisk is New with the persistent tier's only failure mode — an
// unusable cache directory — surfaced as an error.
func NewWithDisk(cfg Config) (*Engine, error) {
	w := cfg.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		store: NewStore(cfg.MaxBytes),
		sem:   make(chan struct{}, w),
	}
	if cfg.CacheDir != "" {
		d, err := diskstore.Open(diskstore.Config{Dir: cfg.CacheDir, MaxBytes: cfg.DiskBytes})
		if err != nil {
			return nil, err
		}
		e.store.AttachDisk(d)
	}
	return e, nil
}

// Close flushes the persistent tier's pending write-behind snapshots and
// stops its goroutine (a no-op without CacheDir). Call it on daemon
// shutdown so artifacts computed just before a restart are warm after it.
func (e *Engine) Close() {
	e.store.Close()
}

// Stats returns the artifact store counters plus the computed-sweep count.
func (e *Engine) Stats() StoreStats {
	st := e.store.Stats()
	st.SweepBatches = e.sweeps.Load()
	st.SweepRequests = st.SweepBatches
	return st
}

// NetworkResident reports whether the input's network-stage artifact would
// be served without computing: adopted input graphs always are, and loaded
// networks (swept or parsed) are when resident in the store or published
// in the persistent tier (a disk load is a read, not a sweep — warm-restart
// requests admit at warm cost). This is the admission layer's cold/warm
// probe — a resident network makes a request cheap regardless of its
// declared dimensions — and deliberately does not touch LRU order or the
// disk access stamps, nor call Load.
func (e *Engine) NetworkResident(in Input) bool {
	if in.G != nil {
		return true
	}
	key := in.key(StageNetwork, Original)
	return e.store.Contains(key) || e.store.ContainsOnDisk(key)
}

// slot acquires a bounded-concurrency worker slot, or fails once ctx is
// cancelled. Stage computes hold a slot only around their own kernel, never
// while resolving dependencies.
func (e *Engine) slot(ctx context.Context) (release func(), err error) {
	select {
	case e.sem <- struct{}{}:
		return func() { <-e.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// get is the typed request path: singleflight + cache via the store, with
// per-request tracing. A computed artifact is sized by its stage's row.
func get[T any](ctx context.Context, e *Engine, key Key, compute func(context.Context) (T, error)) (T, error) {
	//parsamplevet:ignore nondeterm stage timings feed only the per-request trace (observability); cached artifacts and fingerprints never see them
	start := time.Now()
	v, src, err := e.store.Do(ctx, key, func(ctx context.Context) (any, int64, error) {
		t, err := compute(ctx)
		if err != nil {
			return nil, 0, err
		}
		v := any(t)
		return v, stages[key.Stage].size(v), nil
	})
	//parsamplevet:ignore nondeterm trace-only duration, see above
	traceRecord(ctx, key, src, time.Since(start), err)
	if err != nil {
		var zero T
		return zero, err
	}
	return v.(T), nil
}

// stage runs one computed stage: deps (nil when the stage has none)
// resolves the stage's inputs without a worker slot, so nested stages
// cannot deadlock the budget, and kernel then runs under one. deps hands
// its results to kernel through variables both closures capture.
func stage[T any](ctx context.Context, e *Engine, key Key, deps func(context.Context) error, kernel func(context.Context) (T, error)) (T, error) {
	return get(ctx, e, key, func(ctx context.Context) (T, error) {
		var zero T
		if deps != nil {
			if err := deps(ctx); err != nil {
				return zero, err
			}
		}
		release, err := e.slot(ctx)
		if err != nil {
			return zero, err
		}
		defer release()
		return kernel(ctx)
	})
}

// Network returns the input's network: Input.G when set, otherwise the
// loaded source's parsed network, or the correlation network built from its
// matrix under Input.Net.
func (e *Engine) Network(ctx context.Context, in Input) (*graph.Graph, error) {
	if in.G != nil {
		// Adopted input network: nothing to compute or cache, but traced
		// consumers still see one entry per pipeline stage.
		traceRecord(ctx, in.key(StageNetwork, Original), Hit, 0, nil)
		return in.G, nil
	}
	if in.Load == nil {
		return nil, fmt.Errorf("pipeline: input %q has neither a network nor a source", in.Name)
	}
	var d Data
	return stage(ctx, e, in.key(StageNetwork, Original), func(context.Context) (err error) {
		d, err = in.Load()
		return err
	}, func(ctx context.Context) (*graph.Graph, error) {
		if d.G != nil {
			return d.G, nil
		}
		e.sweeps.Add(1)
		return expr.BuildNetworkContext(ctx, d.Matrix, in.Net)
	})
}

// Order returns the vertex processing order of the input's network under o.
func (e *Engine) Order(ctx context.Context, in Input, o graph.Ordering) ([]int32, error) {
	var g *graph.Graph
	return stage(ctx, e, in.key(StageOrder, Variant{Ordering: o, Algorithm: -1}), func(ctx context.Context) (err error) {
		g, err = e.Network(ctx, in)
		return err
	}, func(context.Context) ([]int32, error) {
		return graph.Order(g, o, in.OrderSeed), nil
	})
}

// Filtered returns the sampling result of a non-original variant; its
// Subgraph is the sampled network.
func (e *Engine) Filtered(ctx context.Context, in Input, v Variant) (*sampling.Result, error) {
	if v.IsOriginal() {
		return nil, fmt.Errorf("pipeline: Filtered of the original network (input %q)", in.Name)
	}
	var g *graph.Graph
	var ord []int32
	return stage(ctx, e, in.key(StageFilter, v), func(ctx context.Context) (err error) {
		if g, err = e.Network(ctx, in); err != nil {
			return err
		}
		ord, err = e.Order(ctx, in, v.Ordering)
		return err
	}, func(ctx context.Context) (*sampling.Result, error) {
		return sampling.RunContext(ctx, v.Algorithm, g, sampling.Options{Order: ord, P: v.P, Seed: in.FilterSeed})
	})
}

// Graph returns the variant's network: the input network for Original, the
// filtered subgraph otherwise.
func (e *Engine) Graph(ctx context.Context, in Input, v Variant) (*graph.Graph, error) {
	if v.IsOriginal() {
		return e.Network(ctx, in)
	}
	f, err := e.Filtered(ctx, in, v)
	if err != nil {
		return nil, err
	}
	return f.Subgraph, nil
}

// Clusters returns the MCODE complexes of the variant's network.
func (e *Engine) Clusters(ctx context.Context, in Input, v Variant) ([]mcode.Cluster, error) {
	var g *graph.Graph
	return stage(ctx, e, in.key(StageCluster, v), func(ctx context.Context) (err error) {
		g, err = e.Graph(ctx, in, v)
		return err
	}, func(ctx context.Context) ([]mcode.Cluster, error) {
		return mcode.FindClustersContext(ctx, g, in.mcodeParams())
	})
}

// Scored returns the variant's clusters scored against the input ontology.
func (e *Engine) Scored(ctx context.Context, in Input, v Variant) ([]analysis.ScoredCluster, error) {
	dag, ann := in.DAG, in.Ann
	var cs []mcode.Cluster
	var g *graph.Graph
	return stage(ctx, e, in.key(StageScore, v), func(ctx context.Context) (err error) {
		if dag == nil && in.Load != nil {
			var d Data
			if d, err = in.Load(); err != nil {
				return err
			}
			dag, ann = d.DAG, d.Ann
		}
		if dag == nil || ann == nil {
			return fmt.Errorf("pipeline: input %q has no ontology to score against", in.Name)
		}
		if cs, err = e.Clusters(ctx, in, v); err != nil {
			return err
		}
		g, err = e.Graph(ctx, in, v)
		return err
	}, func(ctx context.Context) ([]analysis.ScoredCluster, error) {
		return analysis.ScoreClustersContext(ctx, dag, ann, g, cs)
	})
}

// Matches returns the match table of a filtered variant's scored clusters
// against the original network's (analysis.MatchClusters).
func (e *Engine) Matches(ctx context.Context, in Input, v Variant) ([]analysis.Match, error) {
	if v.IsOriginal() {
		return nil, fmt.Errorf("pipeline: Matches of the original against itself (input %q)", in.Name)
	}
	var orig, filt []analysis.ScoredCluster
	var gOrig, gFilt *graph.Graph
	return stage(ctx, e, in.key(StageMatch, v), func(ctx context.Context) (err error) {
		if orig, err = e.Scored(ctx, in, Original); err != nil {
			return err
		}
		if filt, err = e.Scored(ctx, in, v); err != nil {
			return err
		}
		if gOrig, err = e.Network(ctx, in); err != nil {
			return err
		}
		gFilt, err = e.Graph(ctx, in, v)
		return err
	}, func(ctx context.Context) ([]analysis.Match, error) {
		return analysis.MatchClustersContext(ctx, gOrig, orig, gFilt, filt)
	})
}

// Warm computes the Scored artifact of every listed variant concurrently
// (bounded by the engine's worker budget) and returns the first error.
// Figure drivers call it before their read loops so independent
// filter→cluster→score chains overlap across variants; subsequent reads are
// cache hits.
func (e *Engine) Warm(ctx context.Context, in Input, vs ...Variant) error {
	if len(vs) == 0 {
		return nil
	}
	errs := make([]error, len(vs))
	var wg sync.WaitGroup
	for i, v := range vs {
		wg.Add(1)
		go func(i int, v Variant) {
			defer wg.Done()
			_, errs[i] = e.Scored(ctx, in, v)
		}(i, v)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ------------------------------------------------------------ byte estimates

// graphBytes estimates a CSR graph's resident size: offsets plus both
// directions of the neighbor arena. No pipeline kernel builds dense
// adjacency rows on a stored graph (mcode.FindClusters only reads it).
func graphBytes(g *graph.Graph) int64 {
	n, m := int64(g.N()), int64(g.M())
	return 4*(n+1) + 8*m
}

func orderBytes(ord []int32) int64 { return int64(4 * len(ord)) }

func filteredBytes(r *sampling.Result) int64 { return graphBytes(r.Subgraph) }

// clustersBytes estimates a cluster list's resident size.
func clustersBytes(cs []mcode.Cluster) int64 {
	b := int64(64 * len(cs))
	for i := range cs {
		b += int64(4 * len(cs[i].Vertices))
	}
	return b
}

// scoredBytes is clustersBytes over the scored clusters plus a 64-byte
// score summary each.
func scoredBytes(sc []analysis.ScoredCluster) int64 {
	b := int64(128 * len(sc))
	for i := range sc {
		b += int64(4 * len(sc[i].Cluster.Vertices))
	}
	return b
}

func matchesBytes(ms []analysis.Match) int64 { return int64(48 * len(ms)) }
