package parsample

import (
	"container/list"
	"context"
	"strings"
	"sync"
	"time"

	"parsample/api"
	"parsample/internal/expr"
	"parsample/internal/faultinject"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/ontology"
	"parsample/internal/pipeline"
	"parsample/internal/sampling"
)

// ParseAlgorithm maps a wire/CLI name (e.g. "chordal-nocomm") to its
// Algorithm. The names are the Algorithm String() forms; see
// api.Algorithms.
func ParseAlgorithm(s string) (Algorithm, bool) {
	for _, a := range sampling.All {
		if a.String() == s {
			return a, true
		}
	}
	return 0, false
}

// ParseOrdering maps a wire/CLI name (NO, HD, LD, RCM, RAND) to its
// Ordering.
func ParseOrdering(s string) (Ordering, bool) {
	for _, o := range append(append([]Ordering(nil), graph.AllOrderings...), RandomOrder) {
		if o.String() == s {
			return o, true
		}
	}
	return 0, false
}

// Do executes one wire-form request end to end on the pipeline: it
// normalizes and validates req (returning an *api.Error with code
// bad_request on schema violations), resolves the network source (cached
// by content fingerprint, so repeated requests skip parsing and
// synthesis), runs the stage graph, and assembles the response. The
// response is a pure function of the normalized request — repeated calls
// return byte-identical JSON — and concurrent identical requests compute
// each stage once (the engine's singleflight). ctx cancels the run
// mid-kernel with ctx.Err(). req is not modified.
func (p *Pipeline) Do(ctx context.Context, req *api.Request) (*api.Response, error) {
	norm, err := req.Normalized()
	if err != nil {
		return nil, err
	}
	ri, err := p.resolve(ctx, norm)
	if err != nil {
		return nil, err
	}

	pin := pipeline.Input{
		Name:       ri.name,
		G:          ri.g,
		Matrix:     ri.matrix,
		Net:        netOptionsFrom(norm),
		DAG:        ri.dag,
		Ann:        ri.ann,
		MCODE:      mcodeParamsFrom(norm),
		OrderSeed:  splitSeed(norm.Filter.Seed, seedPurposeOrder),
		FilterSeed: splitSeed(norm.Filter.Seed, seedPurposeSampler),
	}
	v := pipeline.Original
	if norm.Filter.Algorithm != api.AlgorithmNone {
		alg, ok := ParseAlgorithm(norm.Filter.Algorithm)
		if !ok {
			return nil, api.Errorf(api.CodeBadRequest, "unknown algorithm %q", norm.Filter.Algorithm)
		}
		ord, ok := ParseOrdering(norm.Filter.Ordering)
		if !ok {
			return nil, api.Errorf(api.CodeBadRequest, "unknown ordering %q", norm.Filter.Ordering)
		}
		v = pipeline.Variant{Ordering: ord, Algorithm: alg, P: norm.Filter.P}
	}

	net, err := p.eng.Network(ctx, pin)
	if err != nil {
		return nil, err
	}
	resp := &api.Response{
		Version: api.Version,
		Request: norm,
		Network: api.NetworkInfo{Vertices: net.N(), Edges: net.M()},
	}
	if !v.IsOriginal() {
		filt, err := p.eng.Filtered(ctx, pin, v)
		if err != nil {
			return nil, err
		}
		fi := &api.FilteredInfo{
			Edges:       filt.Subgraph.M(),
			BorderEdges: filt.BorderEdges,
			Duplicates:  filt.DuplicateBorderEdges,
		}
		if norm.Output.Edges {
			fi.EdgeList = edgePairs(filt.Subgraph)
		}
		resp.Filtered = fi
	}
	clusters, err := p.eng.Clusters(ctx, pin, v)
	if err != nil {
		return nil, err
	}
	resp.Clusters = make([]api.Cluster, 0, len(clusters))
	for _, c := range clusters {
		resp.Clusters = append(resp.Clusters, api.Cluster{
			ID:       c.ID,
			Vertices: c.Vertices,
			Edges:    c.Edges,
			Density:  c.Density,
			Score:    c.Score,
		})
	}
	if *norm.Score.Enabled {
		scored, err := p.eng.Scored(ctx, pin, v)
		if err != nil {
			return nil, err
		}
		resp.Scores = make([]api.ClusterScore, 0, len(scored))
		for _, sc := range scored {
			resp.Scores = append(resp.Scores, api.ClusterScore{
				ClusterID:     sc.Cluster.ID,
				AEES:          sc.Score.AEES,
				MaxEdgeScore:  sc.Score.MaxEdgeScore,
				DominantTerm:  int(sc.Score.DominantTerm),
				DominantCount: sc.Score.DominantCount,
				Edges:         sc.Score.Edges,
			})
		}
	}
	return resp, nil
}

// edgePairs lists g's edges as (u, v) pairs with u < v, in CSR
// (lexicographic) order.
func edgePairs(g *graph.Graph) [][2]int32 {
	out := make([][2]int32, 0, g.M())
	for u := int32(0); int(u) < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				out = append(out, [2]int32{u, v})
			}
		}
	}
	return out
}

// NetworkFromSource materializes a request's network source as a Graph:
// inline edge lists are parsed, dataset names resolved, synthesized
// matrices built into correlation networks. File-driven CLIs
// (`parsample stats`, `parsample pipeline -dot`) use it so every front end
// shares one source grammar.
func (p *Pipeline) NetworkFromSource(ctx context.Context, src api.NetworkSource) (*Graph, error) {
	norm, err := (&api.Request{Network: src}).Normalized()
	if err != nil {
		return nil, err
	}
	ri, err := p.resolve(ctx, norm)
	if err != nil {
		return nil, err
	}
	if ri.g != nil {
		return ri.g, nil
	}
	return p.eng.Network(ctx, pipeline.Input{Name: ri.name, Matrix: ri.matrix, Net: netOptionsFrom(norm)})
}

// ------------------------------------------------------------ resolution

// resolvedInput is a materialized network source: the data a pipeline.Input
// carries, keyed by the request fingerprint. It is pure data — correlation
// options are per-request run parameters (netOptionsFrom), NOT part of the
// resolved source, so requests that differ only in thresholds or precision
// share one entry (and one synthesized matrix) here.
type resolvedInput struct {
	name   string
	g      *graph.Graph
	matrix *expr.Matrix
	dag    *ontology.DAG
	ann    *ontology.Annotations
}

// netOptionsFrom maps a normalized request's correlation spec onto engine
// options. Matrix-less sources have no correlation stage; the zero value
// is returned and ignored downstream.
func netOptionsFrom(norm *api.Request) expr.NetworkOptions {
	c := norm.Network.Correlation
	if c == nil {
		return expr.NetworkOptions{}
	}
	kind := expr.PearsonCorr
	if c.Statistic == "spearman" {
		kind = expr.SpearmanCorr
	}
	return expr.NetworkOptions{Kind: kind, MinAbsR: *c.MinAbsR, MaxP: *c.MaxP, Negative: c.Negative}
}

// mcodeParamsFrom maps a normalized request's cluster spec onto MCODE
// kernel parameters.
func mcodeParamsFrom(norm *api.Request) mcode.Params {
	return mcode.Params{
		VertexWeightPercentage: *norm.Cluster.VertexWeightPct,
		Haircut:                *norm.Cluster.Haircut,
		MinScore:               *norm.Cluster.MinScore,
		MinSize:                *norm.Cluster.MinSize,
		Fluff:                  norm.Cluster.Fluff,
		FluffDensityThreshold:  *norm.Cluster.FluffDensityThreshold,
	}
}

// Resident reports whether req's expensive artifacts are already warm in
// this Pipeline: the source is resolved (parsed or synthesized) and — for
// matrix-backed sources, whose dominant cost is the O(genes²·samples)
// correlation sweep — the network artifact is resident in the engine
// store. The serving tier's admission gate uses this to discount the cost
// of warm repeats and, under degradation, to shed cold synthesis work
// before cached work. The probe is read-only: it touches neither the
// resolver's nor the store's LRU order and materializes nothing. A false
// from a malformed request is fine — admission re-validates via Do.
func (p *Pipeline) Resident(req *api.Request) bool {
	norm, err := req.Normalized()
	if err != nil {
		return false
	}
	fp := norm.Fingerprint()
	if !p.resolver.contains(fp) {
		return false
	}
	if norm.Network.Synthesis == nil {
		// Graph-backed sources: the parse/dataset build is the cost; once
		// resolved the network stage is a cheap pass-through.
		return true
	}
	return p.eng.NetworkResident(pipeline.Input{
		Name:       fp,
		Net:        netOptionsFrom(norm),
		MCODE:      mcodeParamsFrom(norm),
		OrderSeed:  splitSeed(norm.Filter.Seed, seedPurposeOrder),
		FilterSeed: splitSeed(norm.Filter.Seed, seedPurposeSampler),
	})
}

// BatchWindow returns the engine's current cross-request sweep-batch
// window.
func (p *Pipeline) BatchWindow() time.Duration { return p.eng.BatchWindow() }

// SetBatchWindow atomically adjusts the sweep-batch window at runtime.
// The serving tier widens it under sustained load (more coalescing, less
// kernel work per admitted request) and restores it when pressure drops;
// in-flight batches keep the window they opened with.
func (p *Pipeline) SetBatchWindow(d time.Duration) { p.eng.SetBatchWindow(d) }

// resolve materializes the normalized request's source, serving repeats
// from the fingerprint-keyed LRU (concurrent identical resolutions
// deduplicate like the engine's singleflight; a waiter gives up when ctx
// ends).
func (p *Pipeline) resolve(ctx context.Context, norm *api.Request) (*resolvedInput, error) {
	key := norm.Fingerprint()
	return p.resolver.do(ctx, key, func() (*resolvedInput, error) {
		// Failpoint: every resolution the cache misses (DESIGN.md §8).
		if err := faultinject.Eval("parsample.resolve"); err != nil {
			return nil, err
		}
		return p.materialize(key, norm)
	})
}

// materialize builds the resolved input for one source (the cache-miss
// path of resolve).
func (p *Pipeline) materialize(key string, norm *api.Request) (*resolvedInput, error) {
	ri := &resolvedInput{name: key}
	switch {
	case norm.Network.Dataset != "":
		ds, ok := p.datasetFor(norm.Network.Dataset)
		if !ok {
			return nil, api.Errorf(api.CodeBadRequest, "dataset %q is not served by this pipeline (have %s)",
				norm.Network.Dataset, p.servedDatasets())
		}
		ri.g, ri.dag, ri.ann = ds.G, ds.DAG, ds.Ann
	case norm.Network.EdgeList != "":
		g, err := graph.ReadEdgeList(strings.NewReader(norm.Network.EdgeList))
		if err != nil {
			return nil, api.Errorf(api.CodeBadRequest, "edge list: %v", err)
		}
		ri.g = g
		if norm.Score.DAG != "" {
			dag, err := ontology.ReadDAG(strings.NewReader(norm.Score.DAG))
			if err != nil {
				return nil, api.Errorf(api.CodeBadRequest, "ontology dag: %v", err)
			}
			ann, err := ontology.ReadAnnotations(strings.NewReader(norm.Score.Annotations))
			if err != nil {
				return nil, api.Errorf(api.CodeBadRequest, "annotations: %v", err)
			}
			if ann.NumGenes() < g.N() {
				return nil, api.Errorf(api.CodeBadRequest, "annotations cover %d genes but the network has %d", ann.NumGenes(), g.N())
			}
			for gene := range int32(ann.NumGenes()) {
				for _, t := range ann.Terms(gene) {
					if int(t) >= dag.NumTerms() {
						return nil, api.Errorf(api.CodeBadRequest, "annotations: gene %d names term %d but the ontology has %d terms", gene, t, dag.NumTerms())
					}
				}
			}
			ri.dag, ri.ann = dag, ann
		}
	default: // synthesis (Normalized guarantees exactly one source)
		s := norm.Network.Synthesis
		syn, err := expr.Synthesize(expr.SyntheticSpec{
			Genes:      s.Genes,
			Samples:    s.Samples,
			Modules:    *s.Modules,
			ModuleSize: *s.ModuleSize,
			Noise:      *s.Noise,
			Seed:       s.Seed,
		})
		if err != nil {
			return nil, api.Errorf(api.CodeBadRequest, "synthesize: %v", err)
		}
		ri.matrix = syn.M
		if *s.Ontology {
			// A matching ontology over the planted modules, so scoring has
			// ground truth (same derivation as internal/datasets and the
			// `parsample pipeline -synth` front end: decorrelated seeds for
			// DAG shape and annotation placement).
			ri.dag = ontology.Generate(ontology.GenerateSpec{Depth: 10, Branch: 3, Seed: s.Seed + 1})
			ri.ann = ontology.AnnotateModules(ri.dag, s.Genes, syn.Modules, 6, s.Seed+2)
		}
	}
	return ri, nil
}

// ------------------------------------------------------- resolver cache

// resolverCacheCap and resolverCacheBytes bound resolved sources held by
// one Pipeline. Resolved inputs pin real memory (graphs, matrices,
// ontologies) outside the engine's byte budget, so the cache keeps at most
// resolverCacheCap entries and at most resolverCacheBytes of expression
// matrices (always at least the newest entry), LRU-evicted; an evicted
// source is simply re-parsed or re-synthesized on its next use. The byte
// bound matters for synthesized sources: 64 matrices at the API synthesis
// cap (MaxSynthesisCells) would pin 16 GiB.
const (
	resolverCacheCap   = 64
	resolverCacheBytes = 64 << 20
)

// resolverCache is an LRU of fingerprint → resolved source with in-flight
// deduplication: concurrent requests for one fingerprint materialize it
// once and share the result. Errors are returned to every waiter but never
// cached (a transient failure should not poison the key), and a panicking
// materialization is such an error: it fails the requests that share its
// flight and the next request for the key recomputes.
type resolverCache struct {
	mu       sync.Mutex
	cap      int
	maxBytes int64
	used     int64 // matrix bytes of the resident entries
	entries  map[string]*list.Element
	lru      *list.List // front = most recent *resolverEntry
	inflight map[string]*resolverFlight
}

type resolverEntry struct {
	key   string
	val   *resolvedInput
	bytes int64
}

type resolverFlight struct {
	done chan struct{}
	val  *resolvedInput
	err  error
}

func (c *resolverCache) init(capacity int, maxBytes int64) {
	c.cap = capacity
	c.maxBytes = maxBytes
	c.entries = make(map[string]*list.Element)
	c.lru = list.New()
	c.inflight = make(map[string]*resolverFlight)
}

// contains reports whether key is resolved and resident, without touching
// LRU order (a residency probe must not keep cold entries warm).
func (c *resolverCache) contains(key string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[key]
	return ok
}

func (c *resolverCache) do(ctx context.Context, key string, compute func() (*resolvedInput, error)) (*resolvedInput, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		v := el.Value.(*resolverEntry).val
		c.mu.Unlock()
		return v, nil
	}
	if f, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, f.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	f := &resolverFlight{done: make(chan struct{})}
	c.inflight[key] = f
	c.mu.Unlock()

	f.val, f.err = resolveContained(compute)
	c.mu.Lock()
	delete(c.inflight, key)
	if f.err == nil {
		var b int64
		if m := f.val.matrix; m != nil {
			b = 8 * int64(m.Genes) * int64(m.Samples)
		}
		c.entries[key] = c.lru.PushFront(&resolverEntry{key: key, val: f.val, bytes: b})
		c.used += b
		for c.lru.Len() > 1 && (c.lru.Len() > c.cap || c.used > c.maxBytes) {
			ent := c.lru.Remove(c.lru.Back()).(*resolverEntry)
			delete(c.entries, ent.key)
			c.used -= ent.bytes
		}
	}
	c.mu.Unlock()
	close(f.done)
	return f.val, f.err
}

// resolveContained runs compute under pipeline.Contain, as the engine's
// stage computes run: a panic in synthesis, parsing or ontology generation
// becomes the flight's error, so the flight still closes instead of
// blocking every later request for the key, and the process survives.
func resolveContained(compute func() (*resolvedInput, error)) (val *resolvedInput, err error) {
	err = pipeline.Contain("parsample: resolving the network source", func() error {
		var err error
		val, err = compute()
		return err
	})
	return val, err
}
