package parsample

import (
	"context"
	"strings"

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

	pin := ri.input(norm)
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
	return p.eng.Network(ctx, ri.input(norm))
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

// input is the engine input of a normalized request over this source: the
// source's data under its fingerprint, plus the request's correlation and
// clustering options and its two seed streams.
func (ri *resolvedInput) input(norm *api.Request) pipeline.Input {
	return pipeline.Input{
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
// before cached work. The probe is read-only: it touches neither store's
// LRU order and materializes nothing. A false from a malformed request is
// fine — admission re-validates via Do.
func (p *Pipeline) Resident(req *api.Request) bool {
	norm, err := req.Normalized()
	if err != nil {
		return false
	}
	fp := norm.Fingerprint()
	if !p.sources.Contains(pipeline.Key{Input: fp}) {
		return false
	}
	if norm.Network.Synthesis == nil {
		// Graph-backed sources: the parse/dataset build is the cost; once
		// resolved the network stage is a cheap pass-through.
		return true
	}
	return p.eng.NetworkResident((&resolvedInput{name: fp}).input(norm))
}

// sourceStoreBytes is the byte budget of one Pipeline's resolved sources.
// They pin real memory (parsed graphs, synthesized matrices) outside the
// engine's artifact budget; an evicted source is simply re-parsed or
// re-synthesized on its next use, and one larger than the whole budget is
// served but not retained (the store's oversized policy). A retained source
// pays only when a request that differs in a later stage (a threshold, a
// sampler) follows it, and traffic of distinct synthesized sources never
// hits, so the budget is small: the last ten or so 4096×100 matrices
// (3.3 MB each).
const sourceStoreBytes = 32 << 20

// resolve materializes the normalized request's source through the
// fingerprint-keyed source store, which deduplicates concurrent identical
// resolutions, contains a panicking one and never caches a failure. Each
// source is charged pipeline.EntryBytes plus the memory it owns: its
// matrix or its parsed graph, and a synthesized or inline ontology.
// Dataset sources are process-global and own nothing.
func (p *Pipeline) resolve(ctx context.Context, norm *api.Request) (*resolvedInput, error) {
	key := norm.Fingerprint()
	v, _, err := p.sources.Do(ctx, pipeline.Key{Input: key}, func(context.Context) (any, int64, error) {
		// Failpoint: every source-store miss (DESIGN.md §8).
		if err := faultinject.Eval("parsample.resolve"); err != nil {
			return nil, 0, err
		}
		ri, err := p.materialize(key, norm)
		if err != nil {
			return nil, 0, err
		}
		b := pipeline.EntryBytes
		if m := ri.matrix; m != nil {
			b += 8 * int64(m.Genes) * int64(m.Samples)
		}
		if norm.Network.EdgeList != "" {
			b += pipeline.GraphBytes(ri.g)
		}
		if ri.dag != nil && norm.Network.Dataset == "" {
			// A dataset's ontology belongs to the pipeline; a synthesized
			// or inline one is built for this entry and lives with it.
			b += ri.dag.Bytes() + ri.ann.Bytes()
		}
		return ri, b, nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*resolvedInput), nil
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
