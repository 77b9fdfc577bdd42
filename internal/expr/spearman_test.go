package expr

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSpearmanMonotone(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{1, 8, 27, 64, 125} // nonlinear but monotone
	if r := Spearman(x, y); math.Abs(r-1) > 1e-12 {
		t.Fatalf("monotone spearman = %v, want 1", r)
	}
	rev := []float64{5, 4, 3, 2, 1}
	if r := Spearman(x, rev); math.Abs(r+1) > 1e-12 {
		t.Fatalf("reversed spearman = %v, want -1", r)
	}
}

func TestSpearmanDegenerate(t *testing.T) {
	if Spearman([]float64{1}, []float64{2}) != 0 {
		t.Fatal("single sample must give 0")
	}
	if Spearman([]float64{1, 2}, []float64{1}) != 0 {
		t.Fatal("length mismatch must give 0")
	}
	if Spearman([]float64{3, 3, 3}, []float64{1, 2, 3}) != 0 {
		t.Fatal("constant vector must give 0")
	}
}

func TestSpearmanTieHandling(t *testing.T) {
	// Ties get averaged ranks; a tied x against any y must stay in [-1, 1].
	x := []float64{1, 1, 2, 2, 3}
	y := []float64{1, 2, 3, 4, 5}
	if got := Spearman(x, y); got < 0.8 || got > 1 {
		t.Fatalf("tied spearman = %v", got)
	}
}

// spearmanStableSort is a second Spearman: stable-sort average ranks, then
// Pearson's sums written out inline. Kept as the differential reference
// for finite vectors, where both must agree bit for bit.
func spearmanStableSort(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	rx := make([]float64, len(x))
	ry := make([]float64, len(y))
	rankIntoStableSort(rx, x)
	rankIntoStableSort(ry, y)
	n := float64(len(x))
	var sx, sy float64
	for i := range rx {
		sx += rx[i]
		sy += ry[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range rx {
		dx, dy := rx[i]-mx, ry[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// TestSpearmanMatchesStableSort pins Spearman to the reference, bit for
// bit, on finite vectors with heavy ties, ±0 and ±Inf, constant vectors
// and mismatched lengths — the centrality-vector inputs the hub
// preservation figure ranks.
func TestSpearmanMatchesStableSort(t *testing.T) {
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	pairs := [][2][]float64{
		{{1, 2}, {1}},
		{{4, 4, 4}, {1, 2, 3}},
		{{0, negZero, 0, 1, -1}, {negZero, 0, 2, 2, 1}},
		{{inf, -inf, 0, inf, 2}, {1, 1, 1, 2, 3}},
	}
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{2, 3, 17, 100, 600} {
		for range 4 {
			x := make([]float64, n)
			y := make([]float64, n)
			for i := range x {
				x[i] = float64(rng.Intn(n/3+1)) / float64(n) // degree-like: heavy ties
				y[i] = x[i] * float64(rng.Intn(3))
				if rng.Intn(4) == 0 {
					y[i] = rng.Float64()
				}
			}
			pairs = append(pairs, [2][]float64{x, y})
		}
	}
	for _, p := range pairs {
		got, want := Spearman(p[0], p[1]), spearmanStableSort(p[0], p[1])
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Spearman(%v, %v) = %v, reference %v", p[0], p[1], got, want)
		}
	}
}

func TestSpearmanRobustToOutliers(t *testing.T) {
	// Pearson collapses under an extreme outlier; Spearman does not.
	x := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	y := []float64{1.1, 2.2, 2.9, 4.1, 5.2, 5.9, 7.1, 1e6}
	p := Pearson(x, y)
	s := Spearman(x, y)
	if s < 0.9 {
		t.Fatalf("spearman = %v, want near 1 under outlier", s)
	}
	if p > s {
		t.Fatalf("pearson %v should be depressed below spearman %v by the outlier", p, s)
	}
}

func TestSpearmanBoundedQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(25)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r := Spearman(x, y)
		return r >= -1-1e-9 && r <= 1+1e-9 && math.Abs(Spearman(y, x)-r) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRankVectorTies(t *testing.T) {
	got := rankVector([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}

// rankIntoStableSort is the ranker before it sorted typed pairs: a stable
// index sort by value through sort.SliceStable. Kept as the differential
// reference for NaN-free rows, where its ranks are well defined.
func rankIntoStableSort(dst []float64, x []float64) {
	n := len(x)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return x[idx[i]] < x[idx[j]] })
	for i := 0; i < n; {
		j := i
		for j+1 < n && x[idx[j+1]] == x[idx[i]] {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			dst[idx[k]] = avg
		}
		i = j + 1
	}
}

// TestRankerMatchesStableSort pins the pair-sorting ranker to the old
// stable-sort ranker, bit for bit, on rows with ties, ±0, ±Inf, constant
// rows and random rows, reusing one ranker's scratch across row lengths.
func TestRankerMatchesStableSort(t *testing.T) {
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	rows := [][]float64{
		{},
		{5},
		{3, 3, 3, 3},
		{0, negZero, 0, negZero, 1, -1},
		{inf, -inf, 0, inf, -inf, 2, 2},
		{1, 2, 2, 3, 3, 3, 4, 4, 4, 4},
		{-2.5, 7, -2.5, 7, 0, 7, negZero},
	}
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{2, 17, 100, 257} {
		row := make([]float64, n)
		for i := range row {
			row[i] = float64(rng.Intn(n/2 + 1)) // heavy ties
		}
		rows = append(rows, row)
		cont := make([]float64, n)
		for i := range cont {
			cont[i] = rng.NormFloat64()
		}
		rows = append(rows, cont)
	}
	var rk ranker
	for _, x := range rows {
		got := make([]float64, len(x))
		want := make([]float64, len(x))
		rk.rankInto(got, x)
		rankIntoStableSort(want, x)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("row %v: ranks %v, stable-sort ranks %v", x, got, want)
			}
		}
	}
}

// TestRankerNaNOrder pins the defined NaN order: every NaN ranks after all
// numbers, each NaN is its own tie group, and NaNs take their ranks in
// index order.
func TestRankerNaNOrder(t *testing.T) {
	nan := math.NaN()
	got := rankVector([]float64{nan, 2, nan, math.Inf(1), 2, nan, -1})
	want := []float64{5, 2.5, 6, 4, 2.5, 7, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranks = %v, want %v", got, want)
		}
	}
}

func TestCorrelateDispatch(t *testing.T) {
	if PearsonCorr.String() != "pearson" || SpearmanCorr.String() != "spearman" {
		t.Fatal("kind strings wrong")
	}
}

// requireSweepMatchesBuilds checks every sweep point's edge count and
// maximum degree against a direct BuildNetworkContext at that point's threshold.
func requireSweepMatchesBuilds(t *testing.T, m *Matrix, pts []SweepPoint, opts NetworkOptions) {
	t.Helper()
	for _, pt := range pts {
		opts.MinAbsR = pt.MinAbsR
		direct := mustBuild(t, m, opts)
		if pt.Edges != direct.M() || pt.MaxDegree != direct.MaxDegree() {
			t.Fatalf("negative=%v sweep at %v: %d edges, max degree %d; direct build %d, %d",
				opts.Negative, pt.MinAbsR, pt.Edges, pt.MaxDegree, direct.M(), direct.MaxDegree())
		}
	}
}

// TestThresholdSweepMonotone sweeps Pearson thresholds with and without
// the sign gate over a modular matrix whose first gene in each module is
// negated, so the gate changes every point below 1.
func TestThresholdSweepMonotone(t *testing.T) {
	res, err := Synthesize(SyntheticSpec{
		Genes: 200, Samples: 30, Modules: 3, ModuleSize: 8, Noise: 0.15, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mod := range res.Modules {
		g := int(mod[0])
		for s := 0; s < res.M.Samples; s++ {
			res.M.Set(g, s, -res.M.At(g, s))
		}
	}
	thresholds := []float64{0.80, 0.90, 0.95, 0.99}
	var positiveEdges int
	for _, negative := range []bool{false, true} {
		sweepOpts := DefaultNetworkOptions()
		sweepOpts.Workers = 4
		sweepOpts.Negative = negative
		pts := mustSweep(t, res.M, thresholds, sweepOpts)
		if len(pts) != 4 {
			t.Fatalf("points = %d", len(pts))
		}
		// Edge count decreases monotonically with the threshold.
		for i := 1; i < len(pts); i++ {
			if pts[i].Edges > pts[i-1].Edges {
				t.Fatalf("edge count not monotone: %+v", pts)
			}
		}
		requireSweepMatchesBuilds(t, res.M, pts, NetworkOptions{MaxP: 0.0005, Negative: negative})
		if pts[0].Edges == 0 {
			t.Fatal("0.80 threshold should keep module edges")
		}
		if !negative {
			positiveEdges = pts[0].Edges
		} else if pts[0].Edges <= positiveEdges {
			t.Fatalf("sign gate added no edge at 0.80: %d with, %d without", pts[0].Edges, positiveEdges)
		}
	}
}

func TestThresholdSweepEmpty(t *testing.T) {
	if pts := mustSweep(t, NewMatrix(5, 5), nil, NetworkOptions{MaxP: 0.05, Workers: 1}); pts != nil {
		t.Fatal("empty thresholds should give nil")
	}
}

// rankRows is the differential corpus for the count kernel: for every n,
// heavy ties, continuous values, a constant row, ±0 mixed with ±Inf,
// denormals and huge values, and rows with one or several NaNs (which the
// count path must hand to the sort).
func rankRows(n int, rng *rand.Rand) [][]float64 {
	inf := math.Inf(1)
	negZero := math.Copysign(0, -1)
	specials := []float64{0, negZero, inf, -inf, math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		2 * math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 1, -1}
	gen := []func(i int) float64{
		func(int) float64 { return float64(rng.Intn(n/4 + 1)) },
		func(int) float64 { return rng.NormFloat64() },
		func(int) float64 { return 3.5 },
		func(int) float64 { return specials[rng.Intn(len(specials))] },
		func(i int) float64 { return float64(i%3) * math.SmallestNonzeroFloat64 },
	}
	var rows [][]float64
	for _, f := range gen {
		row := make([]float64, n)
		for i := range row {
			row[i] = f(i)
		}
		rows = append(rows, row)
	}
	for _, nans := range []int{1, 3} {
		row := make([]float64, n)
		for i := range row {
			row[i] = float64(rng.Intn(5))
		}
		for range nans {
			row[rng.Intn(n)] = math.NaN()
		}
		rows = append(rows, row)
	}
	return rows
}

// checkRanks ranks x with rk (whatever path rankInto picks) and fails
// unless every rank equals the sort ranker's bit for bit.
func checkRanks(t *testing.T, rk *ranker, x []float64) {
	t.Helper()
	got := make([]float64, len(x))
	want := make([]float64, len(x))
	rk.rankInto(got, x)
	var oracle ranker
	oracle.rankSort(want, x)
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d row %v: rank[%d] = %v, sort ranker %v", len(x), x, i, got[i], want[i])
		}
	}
}

// TestRankCountMatchesRanker pins the count kernel to the sort ranker, bit
// for bit, on each ISA, for n = 1..300 and either side of rankCountMax,
// reusing one ranker's scratch across every length. On the AVX legs it
// also checks that a NaN-free row in range took the count path.
func TestRankCountMatchesRanker(t *testing.T) {
	withKernelISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		var rk ranker
		lengths := []int{}
		for n := 1; n <= 300; n++ {
			lengths = append(lengths, n)
		}
		lengths = append(lengths, rankCountMax-1, rankCountMax, rankCountMax+1)
		for _, n := range lengths {
			for _, x := range rankRows(n, rng) {
				checkRanks(t, &rk, x)
			}
		}
		if kernelISA < isaAVX2 {
			return
		}
		x := rankRows(7, rng)[1]
		if !rk.rankCount(make([]float64, len(x)), x) {
			t.Fatal("rankCount refused a NaN-free row")
		}
		x[3] = math.NaN()
		if rk.rankCount(make([]float64, len(x)), x) {
			t.Fatal("rankCount accepted a row holding NaN")
		}
	})
}

// FuzzRankMatchesRanker decodes a row from the fuzz bytes and pins
// rankInto to the sort ranker bit for bit. An even first byte reads one
// value per byte from a small palette (ties, ±0, ±Inf, denormals, NaN); an
// odd one reads raw float64 bits, 8 bytes a value.
func FuzzRankMatchesRanker(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2, 3, 250, 251, 9, 9, 9})
	f.Add([]byte{0, 252, 253, 254, 255, 0, 128, 7})
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	palette := []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64,
		math.NaN(), 0}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		var x []float64
		if data[0]%2 == 0 {
			for _, b := range data[1:] {
				v := float64(int8(b)) / 4
				if int(b) >= 256-len(palette) {
					v = palette[int(b)-(256-len(palette))]
				}
				x = append(x, v)
			}
		} else {
			for i := 1; i+8 <= len(data); i += 8 {
				x = append(x, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
			}
		}
		var rk ranker
		checkRanks(t, &rk, x)
	})
}

// BenchmarkRankRows times the sort ranker against the count kernel per
// row of normal values, at lengths up to the API's 2048-sample cap; the
// crossover sets rankCountMax.
func BenchmarkRankRows(b *testing.B) {
	const rows = 64
	for _, n := range []int{16, 64, 100, 256, 512, 768, 1024, 2048} {
		rng := rand.New(rand.NewSource(int64(n)))
		xs := make([][]float64, rows)
		for i := range xs {
			xs[i] = make([]float64, n)
			for j := range xs[i] {
				xs[i][j] = rng.NormFloat64()
			}
		}
		dst := make([]float64, n)
		b.Run(fmt.Sprintf("n=%d/sort", n), func(b *testing.B) {
			var rk ranker
			for i := 0; b.Loop(); i++ {
				rk.rankSort(dst, xs[i%rows])
			}
		})
		b.Run(fmt.Sprintf("n=%d/count", n), func(b *testing.B) {
			if kernelISA < isaAVX2 {
				b.Skip("no AVX2 count kernel on this machine")
			}
			var rk ranker
			for i := 0; b.Loop(); i++ {
				rk.rankCount(dst, xs[i%rows])
			}
		})
	}
}
