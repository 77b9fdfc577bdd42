package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"

	"parsample"
	"parsample/api"
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

// The replay calls each layer's public function directly, in the order
// parsample.Pipeline.Do does, so a span measures that layer alone. Do's
// glue is mirrored here — seed streams, option mapping, response assembly
// — and every replayed response is compared byte for byte with the
// daemon's, so a drift between the two fails the run instead of skewing it.

// Seed-stream tags of parsample's splitSeed: the ordering shuffle and the
// samplers draw decorrelated seeds from one Filter.Seed.
const (
	seedPurposeOrder   = 0x4f524452 // "ORDR"
	seedPurposeSampler = 0x53414d50 // "SAMP"
)

func splitSeed(seed int64, purpose uint64) int64 {
	return int64(graph.SplitMix64(uint64(seed) + purpose*0x9e3779b97f4a7c15))
}

// decodeRequest is the front of every request path: decode, normalize,
// fingerprint and price.
func decodeRequest(tr *tracer, body []byte) (*api.Request, error) {
	var req, norm *api.Request
	err := tr.do("api.decode", func() (err error) {
		req, err = api.UnmarshalRequest(body)
		return err
	})
	if err != nil {
		return nil, err
	}
	if err := tr.do("api.normalize", func() (err error) {
		norm, err = req.Normalized()
		return err
	}); err != nil {
		return nil, err
	}
	tr.do("api.fingerprint", func() error { _ = norm.Fingerprint(); return nil })
	tr.do("api.estimate_cost", func() error { _ = api.EstimateCost(norm); return nil })
	return norm, nil
}

// encode is the back of every request path.
func encode(tr *tracer, resp *api.Response) ([]byte, error) {
	var out []byte
	err := tr.do("api.encode_json", func() (err error) {
		out, err = encodeResponse(resp)
		return err
	})
	tr.c.responses++
	tr.c.responseBytes += int64(len(out))
	return out, err
}

// replayRequest runs one cold wire request through every layer and
// returns the bytes the daemon would answer with.
func replayRequest(ctx context.Context, tr *tracer, body []byte) ([]byte, error) {
	norm, err := decodeRequest(tr, body)
	if err != nil {
		return nil, err
	}
	resp, err := replayChain(ctx, tr, norm)
	if err != nil {
		return nil, err
	}
	return encode(tr, resp)
}

// replayChain is Pipeline.Do's stage chain on a normalized request:
// resolve the source, build the network, order, sample, cluster, score,
// assemble.
func replayChain(ctx context.Context, tr *tracer, norm *api.Request) (*api.Response, error) {
	var (
		g   *graph.Graph
		dag *ontology.DAG
		ann *ontology.Annotations
	)
	switch {
	case norm.Network.Dataset != "":
		ds, err := dataset(norm.Network.Dataset)
		if err != nil {
			return nil, err
		}
		g, dag, ann = ds.G, ds.DAG, ds.Ann
	case norm.Network.Synthesis != nil:
		s := norm.Network.Synthesis
		var syn *expr.SyntheticResult
		if err := tr.do("resolve.synthesize", func() (err error) {
			syn, err = expr.Synthesize(expr.SyntheticSpec{
				Genes: s.Genes, Samples: s.Samples, Modules: *s.Modules,
				ModuleSize: *s.ModuleSize, Noise: *s.Noise, Seed: s.Seed,
			})
			return err
		}); err != nil {
			return nil, err
		}
		if *s.Ontology {
			tr.do("resolve.ontology", func() error {
				dag = ontology.Generate(ontology.GenerateSpec{Depth: 10, Branch: 3, Seed: s.Seed + 1})
				ann = ontology.AnnotateModules(dag, s.Genes, syn.Modules, 6, s.Seed+2)
				return nil
			})
		}
		if err := tr.do("expr.build_network", func() (err error) {
			g, err = expr.BuildNetworkContext(ctx, syn.M, netOptions(norm.Network.Correlation))
			return err
		}); err != nil {
			return nil, err
		}
		pairs := int64(s.Genes) * int64(s.Genes-1) / 2
		tr.c.pairs += pairs
		tr.c.pairSamples += pairs * int64(s.Samples)
		tr.c.admits += int64(g.M())
	default:
		return nil, fmt.Errorf("replay: unsupported network source")
	}

	resp := &api.Response{
		Version: api.Version,
		Request: norm,
		Network: api.NetworkInfo{Vertices: g.N(), Edges: g.M()},
	}
	fg := g
	if norm.Filter.Algorithm != api.AlgorithmNone {
		alg, ok := parsample.ParseAlgorithm(norm.Filter.Algorithm)
		ord, ok2 := parsample.ParseOrdering(norm.Filter.Ordering)
		if !ok || !ok2 {
			return nil, fmt.Errorf("replay: unknown filter %s/%s", norm.Filter.Algorithm, norm.Filter.Ordering)
		}
		var order []int32
		tr.do("graph.order", func() error {
			order = graph.Order(g, ord, splitSeed(norm.Filter.Seed, seedPurposeOrder))
			return nil
		})
		var res *sampling.Result
		if err := tr.do("sampling."+alg.String(), func() (err error) {
			res, err = sampling.RunContext(ctx, alg, g, sampling.Options{
				Order: order, P: norm.Filter.P, Seed: splitSeed(norm.Filter.Seed, seedPurposeSampler),
			})
			if err == nil {
				fg = res.Graph(g.N())
			}
			return err
		}); err != nil {
			return nil, err
		}
		tr.c.sampledIn += int64(g.M())
		tr.c.sampledKept += int64(fg.M())
		tr.c.messages += res.Stats.Messages
		tr.c.bytes += res.Stats.Bytes
		tr.c.collBytes += res.Stats.CollBytes
		tr.c.dupBorder += int64(res.DuplicateBorderEdges)
		tr.c.restarts += res.Stats.Restarts
		fi := &api.FilteredInfo{Edges: fg.M(), BorderEdges: res.BorderEdges, Duplicates: res.DuplicateBorderEdges}
		if norm.Output.Edges {
			fi.EdgeList = edgePairs(fg)
		}
		resp.Filtered = fi
	}

	var clusters []mcode.Cluster
	if err := tr.do("mcode.find_clusters", func() (err error) {
		clusters, err = mcode.FindClustersContext(ctx, fg, mcodeParams(&norm.Cluster))
		return err
	}); err != nil {
		return nil, err
	}
	tr.c.clusters += int64(len(clusters))
	resp.Clusters = make([]api.Cluster, 0, len(clusters))
	for _, c := range clusters {
		resp.Clusters = append(resp.Clusters, api.Cluster{ID: c.ID, Vertices: c.Vertices, Edges: c.Edges, Density: c.Density, Score: c.Score})
	}
	if *norm.Score.Enabled {
		var scored []analysis.ScoredCluster
		if err := tr.do("analysis.score", func() (err error) {
			scored, err = analysis.ScoreClustersContext(ctx, dag, ann, fg, clusters)
			return err
		}); err != nil {
			return nil, err
		}
		resp.Scores = make([]api.ClusterScore, 0, len(scored))
		for _, sc := range scored {
			resp.Scores = append(resp.Scores, api.ClusterScore{
				ClusterID: sc.Cluster.ID, AEES: sc.Score.AEES, MaxEdgeScore: sc.Score.MaxEdgeScore,
				DominantTerm: int(sc.Score.DominantTerm), DominantCount: sc.Score.DominantCount, Edges: sc.Score.Edges,
			})
		}
	}
	if tr.wantArtifacts() {
		tr.keep(g, nil)
		tr.keep(fg, clusters)
	}
	return resp, nil
}

// replayWarm runs one request down the warm path of a primed Pipeline.
func replayWarm(ctx context.Context, tr *tracer, p *parsample.Pipeline, body []byte) ([]byte, error) {
	norm, err := decodeRequest(tr, body)
	if err != nil {
		return nil, err
	}
	var resident bool
	tr.do("pipeline.resident_probe", func() error { resident = p.Resident(norm); return nil })
	if !resident {
		return nil, fmt.Errorf("replay: primed request is not resident")
	}
	var resp *api.Response
	if err := tr.do("pipeline.do_warm", func() (err error) {
		resp, err = p.Do(ctx, norm)
		return err
	}); err != nil {
		return nil, err
	}
	if tr.wantArtifacts() {
		var g *graph.Graph
		if ds, err := dataset(norm.Network.Dataset); err == nil {
			g = ds.G
		}
		tr.keep(g, apiClusters(resp.Clusters))
	}
	return encode(tr, resp)
}

// artifactPass runs the disk tier's codec and store over the artifacts
// the replay kept: encode, put, get, decode, checking each round trip.
func artifactPass(tr *tracer, dir string) error {
	store, err := diskstore.Open(diskstore.Config{Dir: dir})
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer store.Close()
	roundTrip := func(blob []byte, check func([]byte) error) error {
		tr.c.snapshotBytes += int64(len(blob))
		sum := sha256.Sum256(blob)
		name := hex.EncodeToString(sum[:])
		if err := tr.do("diskstore.put", func() error { return store.Put(name, blob) }); err != nil {
			return err
		}
		var got []byte
		if err := tr.do("diskstore.get", func() error {
			var ok bool
			if got, ok = store.Get(name); !ok {
				return fmt.Errorf("diskstore: %s missing after put", name)
			}
			return nil
		}); err != nil {
			return err
		}
		return tr.do("snapshot.decode", func() error { return check(got) })
	}
	for _, a := range tr.arts {
		root := tr.begin("artifact")
		if a.g != nil {
			var blob []byte
			tr.do("snapshot.encode", func() error { blob = snapshot.EncodeGraph(a.g); return nil })
			err = roundTrip(blob, func(b []byte) error {
				h, err := snapshot.DecodeGraph(b)
				if err == nil && (h.N() != a.g.N() || h.M() != a.g.M()) {
					err = fmt.Errorf("snapshot: decoded graph differs")
				}
				return err
			})
		}
		if err == nil && a.cs != nil {
			var blob []byte
			tr.do("snapshot.encode", func() error { blob = snapshot.EncodeClusters(a.cs); return nil })
			err = roundTrip(blob, func(b []byte) error {
				cs, err := snapshot.DecodeClusters(b)
				if err == nil && len(cs) != len(a.cs) {
					err = fmt.Errorf("snapshot: decoded clusters differ")
				}
				return err
			})
		}
		tr.end(root)
		if err != nil {
			return err
		}
	}
	return nil
}

// probe sends one small input through every layer, so each traced run
// reports every span whichever workload it replays: a 192×24 synthesized
// matrix through all seven samplers, then a cold and a warm request on a
// daemon of its own. Its spans sit under roots named "probe", and its
// counts are added to the workload's.
func probe(ctx context.Context, tr *tracer) error {
	tiny := func(alg sampling.Algorithm, k int) []byte {
		modules, size := 4, 8
		return mustJSON(&api.Request{
			Network: api.NetworkSource{Synthesis: &api.SynthesisSpec{Genes: 192, Samples: 24, Modules: &modules, ModuleSize: &size, Seed: 7}},
			Filter:  api.FilterSpec{Algorithm: alg.String(), Ordering: orderings[k%len(orderings)], P: 2, Seed: 3},
		})
	}
	var (
		coldRoot      int32
		body, coldOut []byte
	)
	for k, alg := range sampling.All {
		root := tr.begin("probe")
		b := tiny(alg, k)
		out, err := replayRequest(ctx, tr, b)
		tr.end(root)
		if err != nil {
			return fmt.Errorf("probe %s: %w", alg, err)
		}
		if alg == sampling.ChordalNoComm {
			coldRoot, body, coldOut = root, b, out
		}
	}

	d, err := startDaemon(1)
	if err != nil {
		return err
	}
	defer d.close()
	var buf bytes.Buffer
	if err := tr.roundtrip(coldRoot, coldOut, func() ([]byte, error) {
		status, cache, out, err := d.post(body, 0, &buf)
		if err == nil {
			err = expect(status, cache, out, "miss")
		}
		return out, err
	}); err != nil {
		return fmt.Errorf("probe round trip: %w", err)
	}
	root := tr.begin("probe")
	out, err := replayWarm(ctx, tr, d.p, body)
	tr.end(root)
	if err != nil {
		return fmt.Errorf("probe warm path: %w", err)
	}
	if !bytes.Equal(out, coldOut) {
		return fmt.Errorf("probe: warm response differs from the cold one")
	}
	return nil
}

// batchRatioK4 is the cross-request coalescing overhead: the median CPU
// time of one batched sweep over four admission specs divided by that of
// the single-spec sweep it generalizes, on a 2048×64 matrix (the ratio
// BENCH_*.json records from wall time as batched_sweep_ratio_k4). CPU time
// leaves out steal, which makes two 20 ms wall timings disagree by ±20%.
func batchRatioK4(ctx context.Context) (float64, error) {
	syn, err := expr.Synthesize(expr.SyntheticSpec{Genes: 2048, Samples: 64, Modules: 16, ModuleSize: 12, Noise: 0.1, Seed: 1})
	if err != nil {
		return 0, err
	}
	base := expr.DefaultNetworkOptions()
	specs := []expr.SweepSpec{
		{MinAbsR: 0.95, MaxP: 0.0005},
		{MinAbsR: 0.90, MaxP: 0.001},
		{MinAbsR: 0.85, MaxP: 0.005},
		{MinAbsR: 0.80, MaxP: 0.01, Negative: true},
	}
	var t1, t4 []float64
	for rep := 0; rep < 11; rep++ {
		for _, k := range []int{1, 4} {
			runtime.GC() // a collection the previous sweep's garbage triggers must not land in this one
			start := cpuTime()
			if _, err := expr.BatchBuildNetworksContext(ctx, syn.M, base, specs[:k]); err != nil {
				return 0, err
			}
			d := ms(cpuTime() - start)
			if k == 1 {
				t1 = append(t1, d)
			} else {
				t4 = append(t4, d)
			}
		}
	}
	return median(t4) / median(t1), nil
}

// apiClusters converts wire clusters back to kernel clusters, for the
// snapshot pass over a warm request's artifacts.
func apiClusters(cs []api.Cluster) []mcode.Cluster {
	out := make([]mcode.Cluster, len(cs))
	for i, c := range cs {
		out[i] = mcode.Cluster{ID: c.ID, Vertices: c.Vertices, Edges: c.Edges, Density: c.Density, Score: c.Score}
	}
	return out
}

// ------------------------------------------------------ Do's option maps

// dataset resolves the evaluation networks the workloads request (UNT is
// in none of them).
func dataset(name string) (*datasets.Dataset, error) {
	switch name {
	case "YNG":
		return datasets.YNG(), nil
	case "MID":
		return datasets.MID(), nil
	case "CRE":
		return datasets.CRE(), nil
	}
	return nil, fmt.Errorf("unknown dataset %q", name)
}

func netOptions(c *api.CorrelationSpec) expr.NetworkOptions {
	kind := expr.PearsonCorr
	if c.Statistic == "spearman" {
		kind = expr.SpearmanCorr
	}
	prec := expr.Float64
	if c.Precision == "float32" {
		prec = expr.Float32
	}
	return expr.NetworkOptions{Kind: kind, MinAbsR: *c.MinAbsR, MaxP: *c.MaxP, Negative: c.Negative, Precision: prec}
}

func mcodeParams(c *api.ClusterSpec) mcode.Params {
	return mcode.Params{
		VertexWeightPercentage: *c.VertexWeightPct,
		Haircut:                *c.Haircut,
		MinScore:               *c.MinScore,
		MinSize:                *c.MinSize,
		Fluff:                  c.Fluff,
		FluffDensityThreshold:  *c.FluffDensityThreshold,
	}
}

// edgePairs lists g's edges as (u, v) pairs with u < v in CSR order.
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
