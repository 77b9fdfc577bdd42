package expr

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// diffMatrices builds the matrix zoo for the differential suites: a
// modular synthetic (near-threshold coefficients on both signs), a small
// dense-noise matrix (coefficients spread across [-1, 1], so loose
// thresholds land many pairs near the cut), and a matrix with planted
// degenerate rows (constant, i.e. zero variance).
func diffMatrices(t *testing.T) map[string]*Matrix {
	t.Helper()
	mats := make(map[string]*Matrix)

	syn, err := Synthesize(SyntheticSpec{Genes: 160, Samples: 24, Modules: 4, ModuleSize: 10, Noise: 0.3, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	mats["modules"] = syn.M

	rng := rand.New(rand.NewSource(99))
	noisy := NewMatrix(90, 10)
	for g := 0; g < noisy.Genes; g++ {
		for s := 0; s < noisy.Samples; s++ {
			noisy.Set(g, s, rng.NormFloat64())
		}
	}
	mats["noise"] = noisy

	degen, err := Synthesize(SyntheticSpec{Genes: 80, Samples: 16, Modules: 2, ModuleSize: 8, Noise: 0.2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < degen.M.Samples; s++ {
		degen.M.Set(5, s, 4.0) // constant row
		degen.M.Set(41, s, 0)  // all-zero row
	}
	mats["degenerate"] = degen.M

	return mats
}

// diffOptions is the admission-rule zoo: the paper's tight cut, loose
// cuts that put many coefficients near the threshold, negative gating,
// and Spearman (rank ties from the degenerate rows included).
func diffOptions() map[string]NetworkOptions {
	return map[string]NetworkOptions{
		"paper":         {Kind: PearsonCorr, MinAbsR: 0.95, MaxP: 0.0005},
		"loose":         {Kind: PearsonCorr, MinAbsR: 0.3, MaxP: 0.2},
		"negative":      {Kind: PearsonCorr, MinAbsR: 0.5, MaxP: 0.1, Negative: true},
		"spearman":      {Kind: SpearmanCorr, MinAbsR: 0.6, MaxP: 0.05},
		"spearman-neg":  {Kind: SpearmanCorr, MinAbsR: 0.4, MaxP: 0.2, Negative: true},
		"p-only":        {Kind: PearsonCorr, MinAbsR: 0, MaxP: 0.001},
		"dense-allpass": {Kind: PearsonCorr, MinAbsR: 0, MaxP: 1},
	}
}

// referencePairs is the per-pair admission rule with no prefilter: the
// canonical dot over the standardized float64 rows, tested against the
// resolved thresholds for every pair g1 < g2.
func referencePairs(t *testing.T, m *Matrix, opts NetworkOptions) []ScoredEdge {
	t.Helper()
	ar := testArena(t, m, opts.Kind)
	return bruteForcePairs(testEngine(t, ar, opts.rule(m.Samples)))
}

// TestFloat32EdgeSetsByteIdenticalToFloat64 is the sweep's contract: for
// every matrix, statistic, sign gate and threshold in the zoo, on every
// available kernel ISA, and whichever Precision the caller sets, the
// engine returns the exact []ScoredEdge of the per-pair float64 rule —
// same pairs, same coefficients, bit for bit. The recheck band makes this
// hold by construction; this test is the empirical pin.
func TestFloat32EdgeSetsByteIdenticalToFloat64(t *testing.T) {
	mats := diffMatrices(t)
	withKernelISA(t, func(t *testing.T) {
		for mname, m := range mats {
			for oname, opts := range diffOptions() {
				want := referencePairs(t, m, opts)
				for _, prec := range []Precision{Float64, Float32} {
					opts.Workers = 3
					opts.Precision = prec
					if got := sortedPairs(m, opts); !slices.Equal(got, want) {
						t.Errorf("%s/%s precision %d: edge set diverges from the per-pair rule: %d edges vs %d",
							mname, oname, prec, len(got), len(want))
					}
				}
			}
		}
	})
}

// TestBatchSweepMatchesIndependentSweeps is the batched-sweep property
// test: one BatchBuildNetworksContext call over k specs returns exactly
// the k networks that k independent BuildNetworkContext runs return, on
// every ISA. The first set mixes sign gates and ends in a dense spec that
// drags the loose sweep onto the dense path; in the second the sign-gated
// spec is tighter than the positive-only one, so the loose rule's
// negative threshold sits above its positive one.
func TestBatchSweepMatchesIndependentSweeps(t *testing.T) {
	mats := diffMatrices(t)
	specSets := map[string][]SweepSpec{
		"mixed": {
			{MinAbsR: 0.95, MaxP: 0.0005},
			{MinAbsR: 0.8, MaxP: 0.01},
			{MinAbsR: 0.5, MaxP: 0.1, Negative: true},
			{MinAbsR: 0.3, MaxP: 0.5},
			{MinAbsR: 0, MaxP: 0.9},
		},
		"asymmetric": {
			{MinAbsR: 0.3, MaxP: 1},
			{MinAbsR: 0.6, MaxP: 1, Negative: true},
		},
	}
	withKernelISA(t, func(t *testing.T) {
		for mname, m := range mats {
			for sname, specs := range specSets {
				base := NetworkOptions{Kind: PearsonCorr, Workers: 2}
				gs, err := BatchBuildNetworksContext(t.Context(), m, base, specs)
				if err != nil {
					t.Fatal(err)
				}
				if len(gs) != len(specs) {
					t.Fatalf("%s/%s: got %d networks for %d specs", mname, sname, len(gs), len(specs))
				}
				for i, sp := range specs {
					o := NetworkOptions{Kind: PearsonCorr, MinAbsR: sp.MinAbsR, MaxP: sp.MaxP, Negative: sp.Negative, Workers: 2}
					want, err := BuildNetworkContext(t.Context(), m, o)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(gs[i], want) {
						t.Errorf("%s/%s spec %d: batched network diverges from independent build (%d vs %d edges)",
							mname, sname, i, gs[i].M(), want.M())
					}
				}
			}
		}
	})
}

// TestBatchBuildNetworksMatchesBuildNetwork pins the graph-level form of a
// multi-rule sweep: each network equals its own single-rule build.
func TestBatchBuildNetworksMatchesBuildNetwork(t *testing.T) {
	syn, err := Synthesize(SyntheticSpec{Genes: 200, Samples: 20, Modules: 3, ModuleSize: 12, Noise: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	specsOpts := []NetworkOptions{
		{Kind: SpearmanCorr, MinAbsR: 0.9, MaxP: 0.001},
		{Kind: SpearmanCorr, MinAbsR: 0.7, MaxP: 0.05, Negative: true},
	}
	specs := []SweepSpec{
		{MinAbsR: 0.9, MaxP: 0.001},
		{MinAbsR: 0.7, MaxP: 0.05, Negative: true},
	}
	base := NetworkOptions{Kind: SpearmanCorr}
	gs, err := BatchBuildNetworksContext(context.Background(), syn.M, base, specs)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range specsOpts {
		want := BuildNetwork(syn.M, o)
		if !reflect.DeepEqual(gs[i], want) {
			t.Errorf("spec %d: batched network differs from BuildNetwork (%d vs %d edges)", i, gs[i].M(), want.M())
		}
	}
}

// TestBatchSweepCancellation: a cancelled batch returns ctx.Err() and no
// partial results.
func TestBatchSweepCancellation(t *testing.T) {
	syn, err := Synthesize(SyntheticSpec{Genes: 400, Samples: 32, Modules: 2, ModuleSize: 20, Noise: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	gs, err := BatchBuildNetworksContext(ctx, syn.M, NetworkOptions{}, []SweepSpec{{MinAbsR: 0.5, MaxP: 1}})
	if !errors.Is(err, context.Canceled) || gs != nil {
		t.Fatalf("cancelled batch: gs=%v err=%v, want nil + %v", gs, err, context.Canceled)
	}
}

// TestCorrelatedPairsFloat32Deterministic mirrors the engine's Workers
// determinism pin under negative gating, where the float32 prefilter
// nominates candidates on both signs.
func TestCorrelatedPairsFloat32Deterministic(t *testing.T) {
	syn, err := Synthesize(SyntheticSpec{Genes: 300, Samples: 18, Modules: 3, ModuleSize: 15, Noise: 0.3, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	var ref []ScoredEdge
	for i, workers := range []int{1, 2, 3, 7} {
		opts := NetworkOptions{MinAbsR: 0.4, MaxP: 0.3, Workers: workers, Negative: true}
		got := sortedPairs(syn.M, opts)
		if i == 0 {
			ref = got
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d: edge set differs from workers=1", workers)
		}
	}
	if len(ref) == 0 {
		t.Fatal("determinism test admitted no edges; thresholds too tight to be meaningful")
	}
}
