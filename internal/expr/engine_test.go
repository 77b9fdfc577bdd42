package expr

import (
	"cmp"
	"context"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"parsample/internal/graph"
)

// correlate is the direct per-pair coefficient the engine must reproduce.
func correlate(kind CorrelationKind, x, y []float64) float64 {
	if kind == SpearmanCorr {
		return Spearman(x, y)
	}
	return Pearson(x, y)
}

// sortedPairs is scoredPairsContext in canonical (U, V) order, so runs
// can be compared pair by pair.
func sortedPairs(m *Matrix, opts NetworkOptions) []ScoredEdge {
	out, _ := scoredPairsContext(context.Background(), m, opts)
	sortScored(out)
	return out
}

func sortScored(out []ScoredEdge) {
	slices.SortFunc(out, func(a, b ScoredEdge) int {
		return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V))
	})
}

// referenceNetwork is the pre-engine BuildNetwork path, kept verbatim as the
// differential oracle: per-pair two-pass correlation, |r| floor, then the
// exact Student-t p-value for every surviving pair.
func referenceNetwork(m *Matrix, opts NetworkOptions) map[graph.Edge]bool {
	opts = opts.withDefaults()
	edges := make(map[graph.Edge]bool)
	for g1 := 0; g1 < m.Genes; g1++ {
		for g2 := g1 + 1; g2 < m.Genes; g2++ {
			r := correlate(opts.Kind, m.Row(g1), m.Row(g2))
			if !opts.Negative && r < 0 {
				continue
			}
			if !(math.Abs(r) >= opts.MinAbsR) { // a NaN coefficient is never an edge
				continue
			}
			if PValue(r, m.Samples) > opts.MaxP {
				continue
			}
			edges[graph.Edge{U: int32(g1), V: int32(g2)}] = true
		}
	}
	return edges
}

func randomMatrix(genes, samples int, modules int, seed int64) *Matrix {
	res, err := Synthesize(SyntheticSpec{
		Genes: genes, Samples: samples, Modules: modules,
		ModuleSize: 6, Noise: 0.4, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return res.M
}

// TestBuildNetworkMatchesReference pins the engine to the per-pair oracle:
// identical edge sets on randomized matrices, for both statistics, across
// loose and stringent thresholds, with and without negative edges, on
// every available kernel ISA.
func TestBuildNetworkMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		opts NetworkOptions
	}{
		{"pearson/defaults", DefaultNetworkOptions()},
		{"pearson/loose", NetworkOptions{MinAbsR: 0.35, MaxP: 0.05}},
		{"pearson/negative", NetworkOptions{MinAbsR: 0.30, MaxP: 0.10, Negative: true}},
		{"pearson/p-only", NetworkOptions{MinAbsR: 0, MaxP: 0.001}},
		{"spearman/defaults", NetworkOptions{Kind: SpearmanCorr, MinAbsR: 0.95, MaxP: 0.0005}},
		{"spearman/loose", NetworkOptions{Kind: SpearmanCorr, MinAbsR: 0.40, MaxP: 0.05}},
		{"spearman/negative", NetworkOptions{Kind: SpearmanCorr, MinAbsR: 0.30, MaxP: 0.10, Negative: true}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			withKernelISA(t, func(t *testing.T) {
				for seed := int64(1); seed <= 3; seed++ {
					m := randomMatrix(120, 12, 4, seed)
					want := referenceNetwork(m, tc.opts)
					g := BuildNetwork(m, tc.opts)
					if g.M() != len(want) {
						t.Fatalf("seed %d: engine %d edges, reference %d", seed, g.M(), len(want))
					}
					g.ForEachEdge(func(u, v int32) {
						if !want[graph.Edge{U: u, V: v}] {
							t.Fatalf("seed %d: engine admitted (%d,%d), reference did not", seed, u, v)
						}
					})
				}
			})
		})
	}
}

// TestCorrelatedPairsDeterministic verifies the pair set and coefficients
// are identical across worker counts, with no pair admitted twice —
// dynamic tile scheduling must not leak into the output.
func TestCorrelatedPairsDeterministic(t *testing.T) {
	m := randomMatrix(150, 15, 5, 42)
	opts := NetworkOptions{MinAbsR: 0.4, MaxP: 0.1}
	opts.Workers = 1
	base := sortedPairs(m, opts)
	if len(base) == 0 {
		t.Fatal("no pairs retained; thresholds too tight for the test to bite")
	}
	for i := 1; i < len(base); i++ {
		a, b := base[i-1], base[i]
		if a.U > b.U || (a.U == b.U && a.V >= b.V) {
			t.Fatalf("pair repeated or out of order at %d: %+v then %+v", i, a, b)
		}
	}
	for _, w := range []int{2, 3, 7} {
		opts.Workers = w
		got := sortedPairs(m, opts)
		if len(got) != len(base) {
			t.Fatalf("workers=%d: %d pairs vs %d", w, len(got), len(base))
		}
		for i := range got {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: pair %d = %+v, want %+v", w, i, got[i], base[i])
			}
		}
	}
}

// TestCorrelatedPairsScores checks the retained coefficients against the
// direct per-pair computation.
func TestCorrelatedPairsScores(t *testing.T) {
	m := randomMatrix(80, 20, 3, 7)
	for _, kind := range []CorrelationKind{PearsonCorr, SpearmanCorr} {
		scored, err := scoredPairsContext(t.Context(), m, NetworkOptions{Kind: kind, MinAbsR: 0.3, MaxP: 0.2})
		if err != nil {
			t.Fatal(err)
		}
		if len(scored) == 0 {
			t.Fatalf("%v: no pairs retained", kind)
		}
		for _, se := range scored {
			want := correlate(kind, m.Row(int(se.U)), m.Row(int(se.V)))
			if math.Abs(se.R-want) > 1e-10 {
				t.Fatalf("%v: pair (%d,%d) r = %v, direct %v", kind, se.U, se.V, se.R, want)
			}
		}
	}
}

// TestCriticalRInvertsP is the threshold-inversion property test: for
// random (maxP, n), |r| ≥ criticalR(maxP, n) must agree exactly with
// PValue(r, n) ≤ maxP — the engine's fast admission test is the old
// per-pair check.
func TestCriticalRInvertsP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(200)
		maxP := math.Pow(10, -6*rng.Float64()) // (1e-6, 1]
		rc := criticalR(maxP, n)
		// The boundary itself must be admissible, its predecessor must not.
		if PValue(rc, n) > maxP {
			return false
		}
		if rc > 0 && PValue(math.Nextafter(rc, 0), n) <= maxP {
			return false
		}
		// Random r: fast test == per-pair test.
		for i := 0; i < 50; i++ {
			r := rng.Float64()
			if (r >= rc) != (PValue(r, n) <= maxP) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestCriticalRDegenerate(t *testing.T) {
	// n ≤ 2: p is always 1.
	if rc := criticalR(0.5, 2); rc <= 1 {
		t.Fatalf("criticalR(0.5, 2) = %v, want unattainable", rc)
	}
	if rc := criticalR(1, 2); rc != 0 {
		t.Fatalf("criticalR(1, 2) = %v, want 0", rc)
	}
	// maxP = 0 admits only |r| = 1 (p exactly 0).
	rc := criticalR(0, 30)
	if PValue(rc, 30) > 0 {
		t.Fatalf("criticalR(0, 30) = %v has p > 0", rc)
	}
	if math.Nextafter(rc, 0) > 0 && PValue(math.Nextafter(rc, 0), 30) <= 0 {
		t.Fatal("criticalR(0, 30) is not the boundary")
	}
	// maxP ≥ 1 admits everything.
	if rc := criticalR(1, 30); rc != 0 {
		t.Fatalf("criticalR(1, 30) = %v, want 0", rc)
	}
}

// TestNetworkOptionsSentinels pins the threshold semantics: negative means
// default, zero is honored literally.
func TestNetworkOptionsSentinels(t *testing.T) {
	o := NetworkOptions{MinAbsR: -1, MaxP: -1}.withDefaults()
	if o.MinAbsR != 0.95 || o.MaxP != 0.0005 {
		t.Fatalf("negative sentinels resolved to %v/%v", o.MinAbsR, o.MaxP)
	}
	o = NetworkOptions{MinAbsR: 0.5, MaxP: 0.01}.withDefaults()
	if o.MinAbsR != 0.5 || o.MaxP != 0.01 {
		t.Fatal("explicit thresholds must pass through")
	}
	d := DefaultNetworkOptions()
	if d.MinAbsR != 0.95 || d.MaxP != 0.0005 || d.Kind != PearsonCorr {
		t.Fatalf("DefaultNetworkOptions = %+v", d)
	}

	// MinAbsR = 0 is now requestable: admission is by p-value alone.
	m := randomMatrix(40, 10, 2, 9)
	loose := BuildNetwork(m, NetworkOptions{MinAbsR: 0, MaxP: 0.05})
	floored := BuildNetwork(m, NetworkOptions{MinAbsR: 0.99, MaxP: 0.05})
	if loose.M() <= floored.M() {
		t.Fatalf("p-only network (%d edges) should exceed |r| ≥ 0.99 network (%d)", loose.M(), floored.M())
	}

	// MaxP = 0 is now requestable: only perfectly correlated pairs survive.
	dup := NewMatrix(3, 8)
	for s := 0; s < 8; s++ {
		dup.Set(0, s, float64(s))
		dup.Set(1, s, 2*float64(s)+1) // exactly correlated with gene 0
		dup.Set(2, s, math.Sin(float64(s)))
	}
	exact := BuildNetwork(dup, NetworkOptions{MinAbsR: 0, MaxP: 0})
	if !exact.HasEdge(0, 1) {
		t.Fatal("perfect correlation must survive MaxP = 0")
	}
	if exact.HasEdge(0, 2) || exact.HasEdge(1, 2) {
		t.Fatal("imperfect correlation must not survive MaxP = 0")
	}
}

func TestStandardizedRowsProperties(t *testing.T) {
	m := randomMatrix(50, 17, 2, 3)
	// Plant a zero-variance row (an exactly representable constant, so the
	// computed mean is exact and the deviations are exactly zero).
	for s := 0; s < m.Samples; s++ {
		m.Set(10, s, 4.0)
	}
	for _, kind := range []CorrelationKind{PearsonCorr, SpearmanCorr} {
		z, _ := standardizedRows(context.Background(), m, kind)
		for g := 0; g < m.Genes; g++ {
			row := z[g*m.Samples : (g+1)*m.Samples]
			var sum, ss float64
			for _, v := range row {
				sum += v
				ss += v * v
			}
			if g == 10 {
				if ss != 0 {
					t.Fatalf("%v: zero-variance row standardized to norm %v", kind, ss)
				}
				continue
			}
			if math.Abs(sum) > 1e-9 || math.Abs(ss-1) > 1e-9 {
				t.Fatalf("%v: row %d mean %v norm² %v", kind, g, sum, ss)
			}
		}
		// Self-dot of a standardized row is the correlation of a gene with
		// itself: 1.
		row := z[m.Samples : 2*m.Samples]
		if r := dot(row, row); math.Abs(r-1) > 1e-12 {
			t.Fatalf("%v: self correlation = %v", kind, r)
		}
	}
}

// TestBuildNetworkDegenerateShapes guards the tileRows guard: matrices
// with zero samples or zero genes must build an empty network, not panic.
func TestBuildNetworkDegenerateShapes(t *testing.T) {
	if g := BuildNetwork(NewMatrix(10, 0), DefaultNetworkOptions()); g.N() != 10 || g.M() != 0 {
		t.Fatalf("zero-sample network: n=%d m=%d", g.N(), g.M())
	}
	if g := BuildNetwork(NewMatrix(0, 5), DefaultNetworkOptions()); g.N() != 0 || g.M() != 0 {
		t.Fatalf("zero-gene network: n=%d m=%d", g.N(), g.M())
	}
	if pairs, err := scoredPairsContext(t.Context(), NewMatrix(3, 0), NetworkOptions{}); err != nil || len(pairs) != 0 {
		t.Fatalf("zero-sample pairs = %d, err %v", len(pairs), err)
	}
}

func TestDecodeTilePair(t *testing.T) {
	for _, tiles := range []int{1, 2, 3, 7, 32, 100} {
		k := int64(0)
		for i := 0; i < tiles; i++ {
			for j := i; j < tiles; j++ {
				gi, gj := decodeTilePair(k, tiles)
				if gi != i || gj != j {
					t.Fatalf("tiles=%d k=%d: got (%d,%d), want (%d,%d)", tiles, k, gi, gj, i, j)
				}
				k++
			}
		}
	}
}

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 3, 7, 8, 9, 16, 31, 64, 100} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		var want float64
		for i := range a {
			want += a[i] * b[i]
		}
		if got := dot(a, b); math.Abs(got-want) > 1e-9 {
			t.Fatalf("n=%d: dot = %v, naive = %v", n, got, want)
		}
	}
}

// TestThresholdSweepNegativeThreshold guards the sentinel clamp: a
// negative threshold in the sweep list must not be misread as the
// use-the-default MinAbsR sentinel (which would silently shrink the
// superset pass to |r| ≥ 0.95).
func TestThresholdSweepNegativeThreshold(t *testing.T) {
	m := randomMatrix(60, 15, 2, 6)
	pts := ThresholdSweep(m, []float64{-0.1, 0.5}, NetworkOptions{MaxP: 0.1})
	direct := BuildNetwork(m, NetworkOptions{MinAbsR: 0.5, MaxP: 0.1})
	if pts[1].Edges != direct.M() {
		t.Fatalf("sweep at 0.5 has %d edges, direct build %d", pts[1].Edges, direct.M())
	}
	if pts[0].Edges < pts[1].Edges {
		t.Fatalf("negative threshold bucket smaller than 0.5 bucket: %+v", pts)
	}
}

// TestThresholdSweepSpearman exercises the sweep on the rank statistic,
// which shares the engine pass.
func TestThresholdSweepSpearman(t *testing.T) {
	res, err := Synthesize(SyntheticSpec{
		Genes: 150, Samples: 25, Modules: 3, ModuleSize: 8, Noise: 0.15, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := NetworkOptions{Kind: SpearmanCorr, MaxP: 0.0005}
	pts := ThresholdSweep(res.M, []float64{0.7, 0.85, 0.95}, opts)
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Edges > pts[i-1].Edges {
			t.Fatalf("edge count not monotone: %+v", pts)
		}
	}
	requireSweepMatchesBuilds(t, res.M, pts, opts)
}

// TestNaNCoefficientIsNeverAnEdge puts one NaN sample in gene 3 of a
// 40×10 matrix, which makes every Pearson coefficient of gene 3 NaN, and
// checks that gene 3 gets no edge in a dense sweep (MinAbsR 0, MaxP 1:
// every other pair is admitted) or a prefiltered one (MinAbsR 0.5), at
// every kernel level, and that the other genes keep the oracle's edges.
func TestNaNCoefficientIsNeverAnEdge(t *testing.T) {
	m := normalMatrix(40, 10, 17)
	m.Set(3, 4, math.NaN())
	for _, opts := range []NetworkOptions{
		{Kind: PearsonCorr, MinAbsR: 0, MaxP: 1, Negative: true},
		{Kind: PearsonCorr, MinAbsR: 0.5, MaxP: 1, Negative: true},
	} {
		want := referenceNetwork(m, opts)
		withKernelISA(t, func(t *testing.T) {
			g := BuildNetwork(m, opts)
			if d := g.Degree(3); d != 0 {
				t.Fatalf("MinAbsR %v: gene 3 has %d edges, want 0", opts.MinAbsR, d)
			}
			if g.M() != len(want) {
				t.Fatalf("MinAbsR %v: engine %d edges, reference %d", opts.MinAbsR, g.M(), len(want))
			}
		})
	}
}
