package parsample

import (
	"context"
	"strings"
	"sync"

	"parsample/api"
	"parsample/internal/datasets"
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
// bad_request on schema violations), runs the stage graph — a stage that
// misses materializes the network source, at most once per request, so
// warm repeats skip parsing and synthesis — and assembles the response. The
// response is a pure function of the normalized request — repeated calls
// return byte-identical JSON — and concurrent identical requests compute
// each stage once (the engine's singleflight). ctx cancels the run
// mid-kernel with ctx.Err(). req is not modified.
func (p *Pipeline) Do(ctx context.Context, req *api.Request) (*api.Response, error) {
	norm, err := req.Normalized()
	if err != nil {
		return nil, err
	}
	pin, done, err := p.source(norm)
	if err != nil {
		return nil, err
	}
	defer done()

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
	in, done, err := p.source(norm)
	if err != nil {
		return nil, err
	}
	defer done()
	return p.eng.Network(ctx, in)
}

// ------------------------------------------------------------ resolution

// input is the engine input of a normalized request, without its source
// data: the request fingerprint as the cache namespace, the request's
// correlation and clustering options and its two seed streams.
func input(norm *api.Request) pipeline.Input {
	return pipeline.Input{
		Name:       norm.Fingerprint(),
		Net:        netOptionsFrom(norm),
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
// this Pipeline: for a dataset source, that the dataset is built; for any
// other source, that its network artifact — the parsed edge list or the
// O(genes²·samples) correlation sweep — is resident in the engine store or
// its disk tier. The serving tier's admission gate uses this to discount
// the cost of warm repeats and, under degradation, to shed cold synthesis
// work before cached work. The probe is read-only: it touches no LRU order
// and builds nothing. A false from a malformed request is fine — admission
// re-validates via Do.
func (p *Pipeline) Resident(req *api.Request) bool {
	norm, err := req.Normalized()
	if err != nil {
		return false
	}
	if name := norm.Network.Dataset; name != "" {
		return p.serves(name) && datasets.Built(name)
	}
	return p.eng.NetworkResident(input(norm))
}

// source is the engine input of a normalized request with its source
// attached. A served dataset is adopted (G, DAG, Ann). Any other source
// gets a loader that materializes it at most once, when the first stage
// that misses asks for it; concurrent requests for one fingerprint share
// the loader of the first of them until that one calls done, so eight
// identical cold requests synthesize once even when different requests
// lead the network and score stages. Nothing outlives the requests.
func (p *Pipeline) source(norm *api.Request) (in pipeline.Input, done func(), err error) {
	in = input(norm)
	if name := norm.Network.Dataset; name != "" {
		ds, ok := p.datasetFor(name)
		if !ok {
			return in, nil, api.Errorf(api.CodeBadRequest, "dataset %q is not served by this pipeline (have %s)",
				name, p.servedDatasets())
		}
		in.G, in.DAG, in.Ann = ds.G, ds.DAG, ds.Ann
		return in, func() {}, nil
	}
	load := sync.OnceValues(func() (pipeline.Data, error) {
		// Failpoint: every source materialization (DESIGN.md §8).
		if err := faultinject.Eval("parsample.resolve"); err != nil {
			return pipeline.Data{}, err
		}
		return materialize(norm)
	})
	l, shared := p.loaders.LoadOrStore(in.Name, load)
	in.Load = l.(func() (pipeline.Data, error))
	if shared {
		return in, func() {}, nil
	}
	// Only the request that stored an entry deletes it, so the entry under
	// in.Name is still this one.
	return in, func() { p.loaders.Delete(in.Name) }, nil
}

// materialize builds an edge-list or synthesized source.
func materialize(norm *api.Request) (pipeline.Data, error) {
	var d pipeline.Data
	if norm.Network.EdgeList != "" {
		g, err := graph.ReadEdgeList(strings.NewReader(norm.Network.EdgeList))
		if err != nil {
			return d, api.Errorf(api.CodeBadRequest, "edge list: %v", err)
		}
		d.G = g
		if norm.Score.DAG != "" {
			dag, err := ontology.ReadDAG(strings.NewReader(norm.Score.DAG))
			if err != nil {
				return d, api.Errorf(api.CodeBadRequest, "ontology dag: %v", err)
			}
			ann, err := ontology.ReadAnnotations(strings.NewReader(norm.Score.Annotations))
			if err != nil {
				return d, api.Errorf(api.CodeBadRequest, "annotations: %v", err)
			}
			if ann.NumGenes() < g.N() {
				return d, api.Errorf(api.CodeBadRequest, "annotations cover %d genes but the network has %d", ann.NumGenes(), g.N())
			}
			for gene := range int32(ann.NumGenes()) {
				for _, t := range ann.Terms(gene) {
					if int(t) >= dag.NumTerms() {
						return d, api.Errorf(api.CodeBadRequest, "annotations: gene %d names term %d but the ontology has %d terms", gene, t, dag.NumTerms())
					}
				}
			}
			d.DAG, d.Ann = dag, ann
		}
		return d, nil
	}
	// Synthesis (Normalized guarantees exactly one source).
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
		return d, api.Errorf(api.CodeBadRequest, "synthesize: %v", err)
	}
	d.Matrix = syn.M
	if *s.Ontology {
		// A matching ontology over the planted modules, so scoring has
		// ground truth (same derivation as internal/datasets and the
		// `parsample pipeline -synth` front end: decorrelated seeds for
		// DAG shape and annotation placement).
		d.DAG = ontology.Generate(ontology.GenerateSpec{Depth: 10, Branch: 3, Seed: s.Seed + 1})
		d.Ann = ontology.AnnotateModules(d.DAG, s.Genes, syn.Modules, 6, s.Seed+2)
	}
	return d, nil
}
