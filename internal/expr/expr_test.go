package expr

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPearsonPerfect(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Fatalf("r = %v, want 1", r)
	}
	neg := []float64{10, 8, 6, 4, 2}
	if r := Pearson(x, neg); math.Abs(r+1) > 1e-12 {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonZeroVariance(t *testing.T) {
	x := []float64{3, 3, 3}
	y := []float64{1, 2, 3}
	if r := Pearson(x, y); r != 0 {
		t.Fatalf("constant vector: r = %v, want 0", r)
	}
	if r := Pearson(nil, nil); r != 0 {
		t.Fatalf("empty: r = %v", r)
	}
	if r := Pearson(x, []float64{1, 2}); r != 0 {
		t.Fatalf("length mismatch: r = %v", r)
	}
}

func TestPearsonKnownValue(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 2, 3, 4, 6}
	r := Pearson(x, y)
	// Computed by hand: cov=9.0/..; verify against direct formula.
	if r < 0.97 || r > 0.99 {
		t.Fatalf("r = %v, want ≈ 0.98", r)
	}
}

func TestPearsonSymmetricAndBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(20)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r1, r2 := Pearson(x, y), Pearson(y, x)
		if math.Abs(r1-r2) > 1e-12 {
			return false
		}
		return r1 >= -1-1e-12 && r1 <= 1+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPearsonInvariantToAffineTransform(t *testing.T) {
	x := []float64{0.3, 1.7, -2.2, 0.9, 3.1, -0.4}
	y := []float64{1.1, 0.2, 0.5, -1.3, 2.2, 0.8}
	r := Pearson(x, y)
	scaled := make([]float64, len(x))
	for i, v := range x {
		scaled[i] = 3*v + 7
	}
	if math.Abs(Pearson(scaled, y)-r) > 1e-12 {
		t.Fatal("Pearson not invariant to positive affine transform")
	}
}

func TestPValueBehaviour(t *testing.T) {
	// Stronger correlation => smaller p.
	p1 := PValue(0.5, 20)
	p2 := PValue(0.9, 20)
	if p2 >= p1 {
		t.Fatalf("p(0.9)=%g should be < p(0.5)=%g", p2, p1)
	}
	// More samples => smaller p at fixed r.
	p3 := PValue(0.5, 100)
	if p3 >= p1 {
		t.Fatalf("p(n=100)=%g should be < p(n=20)=%g", p3, p1)
	}
	// Perfect correlation.
	if p := PValue(1, 10); p != 0 {
		t.Fatalf("p(r=1) = %g, want 0", p)
	}
	// Degenerate sample size.
	if p := PValue(0.9, 2); p != 1 {
		t.Fatalf("p(n=2) = %g, want 1", p)
	}
	// r=0: p should be 1 (or extremely close).
	if p := PValue(0, 30); p < 0.99 {
		t.Fatalf("p(r=0) = %g, want ~1", p)
	}
}

func TestPValueAgainstKnownQuantiles(t *testing.T) {
	// For df=10 (n=12), t=2.228 is the two-sided 5% critical value.
	// r = t/sqrt(df + t²).
	tcrit := 2.228
	df := 10.0
	r := tcrit / math.Sqrt(df+tcrit*tcrit)
	p := PValue(r, 12)
	if math.Abs(p-0.05) > 0.002 {
		t.Fatalf("p = %g, want ≈ 0.05", p)
	}
	// df=30 (n=32), t=2.750 is the two-sided 1% critical value.
	tcrit, df = 2.750, 30
	r = tcrit / math.Sqrt(df+tcrit*tcrit)
	p = PValue(r, 32)
	if math.Abs(p-0.01) > 0.001 {
		t.Fatalf("p = %g, want ≈ 0.01", p)
	}
}

// TestPValueGoldenStudentT pins PValue against published two-sided
// Student-t critical values: for each (t*, df, α) row of the standard
// table, the correlation r = t*/√(df + t*²) observed with n = df + 2
// samples must have a p-value of exactly α (to the table's precision).
func TestPValueGoldenStudentT(t *testing.T) {
	cases := []struct {
		tcrit float64
		df    int
		alpha float64
	}{
		{12.706205, 1, 0.05},
		{63.656741, 1, 0.01},
		{4.302653, 2, 0.05},
		{2.570582, 5, 0.05},
		{4.032143, 5, 0.01},
		{1.812461, 10, 0.10},
		{2.228139, 10, 0.05},
		{3.169273, 10, 0.01},
		{2.085963, 20, 0.05},
		{2.845340, 20, 0.01},
		{2.042272, 30, 0.05},
		{1.983972, 100, 0.05},
	}
	for _, c := range cases {
		df := float64(c.df)
		r := c.tcrit / math.Sqrt(df+c.tcrit*c.tcrit)
		p := PValue(r, c.df+2)
		if math.Abs(p-c.alpha) > 2e-4 {
			t.Errorf("df=%d t=%v: p = %.6f, want %.4f", c.df, c.tcrit, p, c.alpha)
		}
	}
}

// TestRegIncBetaGolden checks the continued-fraction evaluation against
// closed forms: I_x(a,1) = x^a, I_x(1,b) = 1−(1−x)^b, the arcsine law for
// a = b = ½, polynomial forms for small integer parameters, and the
// binomial-tail identity I_x(a,b) = P(Bin(a+b−1, x) ≥ a).
func TestRegIncBetaGolden(t *testing.T) {
	cases := []struct {
		a, b, x, want float64
	}{
		{3, 1, 0.6, 0.216},        // x^a
		{1, 4, 0.3, 0.7599},       // 1-(1-x)^b
		{0.5, 0.5, 0.5, 0.5},      // arcsine law, symmetric point
		{0.5, 0.5, 0.25, 1.0 / 3}, // (2/π)·asin(√¼)
		{2, 2, 0.3, 0.216},        // 3x²-2x³
		{3, 3, 0.5, 0.5},          // symmetry
		{2, 3, 0.4, 0.5248},       // P(Bin(4, 0.4) ≥ 2)
	}
	for _, c := range cases {
		if got := regIncBeta(c.a, c.b, c.x); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("I_%v(%v,%v) = %.12f, want %.12f", c.x, c.a, c.b, got, c.want)
		}
	}
}

func TestRegIncBetaBounds(t *testing.T) {
	if v := regIncBeta(2, 3, 0); v != 0 {
		t.Fatalf("I_0 = %v", v)
	}
	if v := regIncBeta(2, 3, 1); v != 1 {
		t.Fatalf("I_1 = %v", v)
	}
	// I_x(1,1) = x (uniform distribution).
	for _, x := range []float64{0.1, 0.5, 0.9} {
		if v := regIncBeta(1, 1, x); math.Abs(v-x) > 1e-10 {
			t.Fatalf("I_%v(1,1) = %v", x, v)
		}
	}
	// Symmetry: I_x(a,b) = 1 - I_{1-x}(b,a).
	for _, x := range []float64{0.2, 0.4, 0.7} {
		lhs := regIncBeta(2.5, 4, x)
		rhs := 1 - regIncBeta(4, 2.5, 1-x)
		if math.Abs(lhs-rhs) > 1e-10 {
			t.Fatalf("symmetry broken at x=%v: %v vs %v", x, lhs, rhs)
		}
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(1, 2, 5.5)
	if m.At(1, 2) != 5.5 {
		t.Fatal("Set/At mismatch")
	}
	row := m.Row(1)
	if len(row) != 4 || row[2] != 5.5 {
		t.Fatal("Row mismatch")
	}
}

func TestSynthesizeValidation(t *testing.T) {
	if _, err := Synthesize(SyntheticSpec{Genes: 0, Samples: 10}); err == nil {
		t.Fatal("want error for 0 genes")
	}
	if _, err := Synthesize(SyntheticSpec{Genes: 10, Samples: 2}); err == nil {
		t.Fatal("want error for 2 samples")
	}
	if _, err := Synthesize(SyntheticSpec{Genes: 10, Samples: 10, Modules: 3, ModuleSize: 5}); err == nil {
		t.Fatal("want error for oversubscribed modules")
	}
	// 2⁶² modules of 4 genes: the product overflows to 0.
	if _, err := Synthesize(SyntheticSpec{Genes: 64, Samples: 8, Modules: 1 << 62, ModuleSize: 4}); err == nil {
		t.Fatal("want error for a module count whose gene total overflows")
	}
}

func TestSynthesizeModulesCorrelate(t *testing.T) {
	res, err := Synthesize(SyntheticSpec{
		Genes: 200, Samples: 30, Modules: 3, ModuleSize: 10, Noise: 0.1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Modules) != 3 {
		t.Fatalf("modules = %d", len(res.Modules))
	}
	// Within-module pairs highly correlated.
	mod := res.Modules[0]
	r := Pearson(res.M.Row(int(mod[0])), res.M.Row(int(mod[1])))
	if r < 0.9 {
		t.Fatalf("within-module r = %v, want > 0.9", r)
	}
	// Across modules: low correlation (latents independent).
	r2 := Pearson(res.M.Row(int(res.Modules[0][0])), res.M.Row(int(res.Modules[1][0])))
	if math.Abs(r2) > 0.8 {
		t.Fatalf("cross-module r = %v, suspiciously high", r2)
	}
}

func TestBuildNetworkRecoversModules(t *testing.T) {
	res, err := Synthesize(SyntheticSpec{
		Genes: 300, Samples: 40, Modules: 4, ModuleSize: 8, Noise: 0.05, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := BuildNetwork(res.M, DefaultNetworkOptions())
	if g.N() != 300 {
		t.Fatalf("network n = %d", g.N())
	}
	// Each planted module should be near-fully connected at ρ ≥ 0.95.
	for _, mod := range res.Modules {
		present, possible := 0, 0
		for i := 0; i < len(mod); i++ {
			for j := i + 1; j < len(mod); j++ {
				possible++
				if g.HasEdge(mod[i], mod[j]) {
					present++
				}
			}
		}
		if float64(present) < 0.8*float64(possible) {
			t.Fatalf("module retained %d/%d edges", present, possible)
		}
	}
	// Background should be sparse: far fewer edges than the module cliques'
	// total plus a small false-positive allowance.
	moduleEdges := 4 * 8 * 7 / 2
	if g.M() > moduleEdges*2 {
		t.Fatalf("network too dense: %d edges for %d module edges", g.M(), moduleEdges)
	}
}

func TestBuildNetworkWorkerCountIrrelevant(t *testing.T) {
	res, _ := Synthesize(SyntheticSpec{
		Genes: 120, Samples: 25, Modules: 2, ModuleSize: 6, Noise: 0.1, Seed: 3,
	})
	opts := DefaultNetworkOptions()
	opts.Workers = 1
	g1 := BuildNetwork(res.M, opts)
	opts.Workers = 8
	g8 := BuildNetwork(res.M, opts)
	if g1.M() != g8.M() {
		t.Fatalf("worker count changed result: %d vs %d edges", g1.M(), g8.M())
	}
	for _, e := range g1.Edges() {
		if !g8.HasEdge(e.U, e.V) {
			t.Fatal("edge sets differ between worker counts")
		}
	}
}

func TestBuildNetworkNegativeOption(t *testing.T) {
	// Construct two perfectly anti-correlated genes.
	m := NewMatrix(2, 10)
	for s := 0; s < 10; s++ {
		m.Set(0, s, float64(s))
		m.Set(1, s, -float64(s))
	}
	gPos := BuildNetwork(m, DefaultNetworkOptions())
	if gPos.HasEdge(0, 1) {
		t.Fatal("negative correlation admitted without Negative option")
	}
	negOpts := DefaultNetworkOptions()
	negOpts.Negative = true
	gNeg := BuildNetwork(m, negOpts)
	if !gNeg.HasEdge(0, 1) {
		t.Fatal("negative correlation not admitted with Negative option")
	}
}

func BenchmarkBuildNetwork(b *testing.B) {
	res, _ := Synthesize(SyntheticSpec{
		Genes: 500, Samples: 30, Modules: 5, ModuleSize: 10, Noise: 0.1, Seed: 1,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildNetwork(res.M, DefaultNetworkOptions())
	}
}
