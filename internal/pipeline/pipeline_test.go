package pipeline

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"parsample/internal/analysis"
	"parsample/internal/datasets"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/sampling"
)

// testDataset synthesizes a small evaluation dataset (planted modules +
// ontology) shared across the engine tests.
var testDataset = func() func() *datasets.Dataset {
	var once sync.Once
	var ds *datasets.Dataset
	return func() *datasets.Dataset {
		once.Do(func() {
			ds = datasets.Build(datasets.Spec{
				Name: "TST", Vertices: 800, Edges: 1500,
				Modules: 10, MinSize: 6, MaxSize: 8, Density: 0.6, NoiseDeg: 0.5,
				NoiseClumps: 0.5, ModuleDepth: 5, Window: 3, Seed: 77,
			})
		})
		return ds
	}
}()

var testVariant = Variant{Ordering: graph.HighDegree, Algorithm: sampling.ChordalSeq, P: 1}

// The engine's stage chain must agree with the direct kernel composition —
// same order, same filter, same clusters, same scores.
func TestEngineMatchesDirectKernels(t *testing.T) {
	ds := testDataset()
	e := New(Config{})
	ctx := context.Background()
	in := FromDataset(ds)

	sc, err := e.Scored(ctx, in, testVariant)
	if err != nil {
		t.Fatal(err)
	}
	fg, err := e.Graph(ctx, in, testVariant)
	if err != nil {
		t.Fatal(err)
	}

	// Direct path, replicating the pre-engine drivers.
	ord := graph.Order(ds.G, graph.HighDegree, ds.Seed)
	res, err := sampling.Run(sampling.ChordalSeq, ds.G, sampling.Options{Order: ord, P: 1, Seed: ds.Seed})
	if err != nil {
		t.Fatal(err)
	}
	directG := res.Graph(ds.G.N())
	directSC := analysis.ScoreClusters(ds.DAG, ds.Ann, directG, mcode.FindClusters(directG, mcode.DefaultParams()))

	if fg.M() != directG.M() || fg.N() != directG.N() {
		t.Fatalf("filtered graph differs: engine %d/%d, direct %d/%d", fg.N(), fg.M(), directG.N(), directG.M())
	}
	if !reflect.DeepEqual(sc, directSC) {
		t.Fatalf("scored clusters differ: engine %d, direct %d", len(sc), len(directSC))
	}

	ms, err := e.Matches(ctx, in, testVariant)
	if err != nil {
		t.Fatal(err)
	}
	orig, err := e.Scored(ctx, in, Original)
	if err != nil {
		t.Fatal(err)
	}
	directMS := analysis.MatchClusters(ds.G, orig, directG, directSC)
	if !reflect.DeepEqual(ms, directMS) {
		t.Fatalf("match tables differ")
	}
}

// Engine-level singleflight: 16 goroutines requesting one Scored artifact
// run each stage of its chain exactly once (order, filter, cluster, score —
// the input carries its network, so there is no network compute).
func TestEngineSingleflightAcrossStages(t *testing.T) {
	ds := testDataset()
	e := New(Config{})
	in := FromDataset(ds)
	var wg sync.WaitGroup
	results := make([][]analysis.ScoredCluster, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sc, err := e.Scored(context.Background(), in, testVariant)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = sc
		}(i)
	}
	wg.Wait()
	st := e.Stats()
	if st.Misses != 4 {
		t.Fatalf("stage computes = %d, want 4 (order, filter, cluster, score); stats %+v", st.Misses, st)
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("goroutine %d saw a different artifact", i)
		}
	}
}

// A warm engine serves repeated requests without recomputing anything.
func TestEngineWarmCacheNoRecompute(t *testing.T) {
	ds := testDataset()
	e := New(Config{})
	ctx := context.Background()
	in := FromDataset(ds)
	if err := e.Warm(ctx, in, Original, testVariant); err != nil {
		t.Fatal(err)
	}
	misses := e.Stats().Misses
	for i := 0; i < 3; i++ {
		if _, err := e.Scored(ctx, in, testVariant); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Scored(ctx, in, Original); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Matches(ctx, in, testVariant); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	// Matches was not warmed, so exactly one extra compute is allowed.
	if st.Misses > misses+1 {
		t.Fatalf("warm engine recomputed: %d misses before, %d after", misses, st.Misses)
	}
	if st.Hits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

// Keys are pure functions of the input parameters: same inputs same key,
// a change to any parameter the artifact depends on a different key, a
// change to one it does not depend on the same key, and Workers never
// fragments the cache.
func TestKeyDiscipline(t *testing.T) {
	ds := testDataset()
	in := FromDataset(ds)
	k1 := in.key(StageScore, testVariant)
	k2 := in.key(StageScore, testVariant)
	if k1 != k2 {
		t.Fatal("identical inputs produced different keys")
	}
	in2 := in
	in2.FilterSeed++
	if in2.key(StageScore, testVariant) == k1 {
		t.Fatal("filter seed change did not change the key")
	}
	if in2.key(StageOrder, Variant{Ordering: graph.HighDegree, Algorithm: -1}) != in.key(StageOrder, Variant{Ordering: graph.HighDegree, Algorithm: -1}) {
		t.Fatal("filter seed change changed an order key")
	}
	in2 = in
	in2.OrderSeed++
	if in2.key(StageScore, testVariant) != k1 {
		t.Fatal("order seed change changed the key of an HD-ordered artifact")
	}
	rnd := Variant{Ordering: graph.RandomOrder, Algorithm: sampling.ChordalSeq, P: 1}
	if in2.key(StageScore, rnd) == in.key(StageScore, rnd) {
		t.Fatal("order seed change did not change the key of a RAND-ordered artifact")
	}
	if in2.key(StageNetwork, Original) != in.key(StageNetwork, Original) {
		t.Fatal("order seed change changed the network key")
	}
	in2 = in
	in2.MCODE = mcode.DefaultParams()
	in2.MCODE.Haircut = !in2.MCODE.Haircut
	if in2.key(StageScore, testVariant) == k1 {
		t.Fatal("MCODE change did not change the score key")
	}
	if in2.key(StageFilter, testVariant) != in.key(StageFilter, testVariant) {
		t.Fatal("MCODE change changed the filter key")
	}
	in3 := in
	in3.Net.Workers = 7 // worker count must not affect artifact identity
	if in3.key(StageScore, testVariant) != k1 {
		t.Fatal("worker count fragmented the cache key")
	}
	in4 := in
	in4.MCODE = mcode.DefaultParams() // explicit defaults == zero value
	if in4.key(StageScore, testVariant) != k1 {
		t.Fatal("explicit default MCODE params fragmented the cache key")
	}
	v2 := testVariant
	v2.P = 2
	if in.key(StageScore, v2) == k1 {
		t.Fatal("variant change did not change the key")
	}
}

// Every stored artifact is charged entryBytes, so artifacts whose payload
// estimate is zero — the empty cluster list of a 3-vertex path — still
// fill the byte budget and get evicted instead of piling up unbounded.
func TestEmptyArtifactsChargedPerEntry(t *testing.T) {
	const budget = 64 << 10
	e := New(Config{MaxBytes: budget})
	g := graph.Path(3)
	for i := range 1000 {
		in := Input{Name: fmt.Sprintf("path-%d", i), G: g}
		cs, err := e.Clusters(context.Background(), in, Original)
		if err != nil {
			t.Fatal(err)
		}
		if len(cs) != 0 {
			t.Fatalf("fixture: a 3-vertex path has %d clusters, want none", len(cs))
		}
	}
	st := e.Stats()
	if int64(st.Entries) > budget/entryBytes || st.BytesUsed > budget || st.Evictions == 0 {
		t.Fatalf("%d entries, %d bytes used, %d evictions: want at most %d entries within the %d-byte budget",
			st.Entries, st.BytesUsed, st.Evictions, budget/entryBytes, budget)
	}
}

// recordTrace returns a context whose observer collects every stage
// request, and a snapshot of what it has collected so far.
func recordTrace(ctx context.Context) (context.Context, func() []TraceEntry) {
	var entries []TraceEntry
	ctx = WithObserver(ctx, func(e TraceEntry) { entries = append(entries, e) })
	return ctx, func() []TraceEntry { return entries }
}

// The observer sees every request of its context with its source.
func TestTrace(t *testing.T) {
	ds := testDataset()
	e := New(Config{})
	in := FromDataset(ds)
	ctx, tr := recordTrace(context.Background())
	if _, err := e.Scored(ctx, in, testVariant); err != nil {
		t.Fatal(err)
	}
	entries := tr()
	computed := map[Stage]bool{}
	for _, en := range entries {
		if en.Source == Computed {
			computed[en.Key.Stage] = true
		}
	}
	for _, st := range []Stage{StageOrder, StageFilter, StageCluster, StageScore} {
		if !computed[st] {
			t.Fatalf("stage %v not traced as computed; entries: %v", st, entries)
		}
	}
	// Each stage prints its trace name; a Stage outside the table its number.
	for st, want := range map[Stage]string{
		StageNetwork: "network", StageOrder: "order", StageFilter: "filter",
		StageCluster: "cluster", StageScore: "score", StageMatch: "match",
		Stage(6): "Stage(6)",
	} {
		if got := st.String(); got != want {
			t.Errorf("Stage %d prints %q, want %q", int(st), got, want)
		}
	}
	// A second run under a fresh observer is all hits.
	ctx2, tr2 := recordTrace(context.Background())
	if _, err := e.Scored(ctx2, in, testVariant); err != nil {
		t.Fatal(err)
	}
	for _, en := range tr2() {
		if en.Source != Hit {
			t.Fatalf("warm request traced as %v", en.Source)
		}
	}
}
