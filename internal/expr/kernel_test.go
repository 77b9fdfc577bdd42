package expr

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// withKernelISA runs f once per available block-kernel implementation
// (generic always; AVX2+FMA when this machine has it), restoring the
// detected default afterwards. Differential coverage of both paths is what
// lets CI on any machine vouch for the other.
func withKernelISA(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := useAVXKernels
	defer func() { useAVXKernels = saved }()
	useAVXKernels = false
	t.Run("generic", f)
	if saved {
		useAVXKernels = true
		t.Run("avx2-fma", f)
	}
}

// kernelRows lays seven random rows of width n out as the kernel reads
// them: three probe rows in a and four partner rows in b, each rounded to
// float32 and zero-padded to stride s32, with the unpadded float64 rows
// in rows for the canonical dot.
type kernelRows struct {
	s32  int
	rows [][]float64
	a, b []float32
}

func randKernelRows(rng *rand.Rand, n int) *kernelRows {
	tr := &kernelRows{s32: rowStride(n)}
	tr.a = make([]float32, blockRows*tr.s32)
	tr.b = make([]float32, blockCols*tr.s32)
	for r := 0; r < blockRows+blockCols; r++ {
		z, k := tr.a, r
		if r >= blockRows {
			z, k = tr.b, r-blockRows
		}
		row := make([]float64, n)
		for i := range row {
			row[i] = rng.NormFloat64()
			z[k*tr.s32+i] = float32(row[i])
		}
		tr.rows = append(tr.rows, row)
	}
	return tr
}

// TestBlockDotMatchesCanonical pins the 3×4 kernel to the canonical
// scalar dot across row widths covering every lane and stride boundary, on
// every available ISA. The tolerance is the engine's own recheck band —
// the bound the sweep's correctness rests on — scaled by the row norms.
func TestBlockDotMatchesCanonical(t *testing.T) {
	withKernelISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for n := 0; n <= 131; n++ {
			tr := randKernelRows(rng, n)
			var out [12]float32
			dot3x4F32(tr.a, tr.b, tr.s32, 1, 1, &out)
			for i := 0; i < blockRows; i++ {
				for k := 0; k < blockCols; k++ {
					a, b := tr.rows[i], tr.rows[blockRows+k]
					want := dot(a, b)
					got := float64(out[blockCols*i+k])
					// Raw rows are not unit-norm, so scale the band by the
					// row magnitudes they would be normalized by.
					scale := math.Sqrt(dot(a, a) * dot(b, b))
					if scale < 1 {
						scale = 1
					}
					if d := math.Abs(got - want); d > recheckBand32(n)*scale {
						t.Fatalf("n=%d pair (%d,%d): block dot off by %g (band %g)", n, i, k, d, recheckBand32(n)*scale)
					}
				}
			}
		}
	})
}

// testArena fills an unpooled arena of m's shape.
func testArena(t *testing.T, m *Matrix, kind CorrelationKind) *buildArena {
	t.Helper()
	ar := newArena(arenaKey{genes: m.Genes, samples: m.Samples})
	if err := ar.fill(t.Context(), m, kind); err != nil {
		t.Fatal(err)
	}
	return ar
}

// TestRecheckBandSoundOnStandardizedRows checks the band inequality the
// engine actually relies on: for standardized (unit-norm) rows, the block
// coefficient is within recheckBand32 of the canonical one.
func TestRecheckBandSoundOnStandardizedRows(t *testing.T) {
	withKernelISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, samples := range []int{3, 17, 64, 100, 333, 2048} {
			m := NewMatrix(blockRows+blockCols, samples)
			for g := 0; g < m.Genes; g++ {
				base := rng.NormFloat64()
				for s := 0; s < samples; s++ {
					// Correlated rows so coefficients are spread over [-1, 1].
					m.Set(g, s, base*math.Sin(float64(s))+0.5*rng.NormFloat64())
				}
			}
			ar := testArena(t, m, PearsonCorr)
			var out [12]float32
			dot3x4F32(ar.z32, ar.z32[blockRows*ar.stride32:], ar.stride32, 1, 1, &out)
			row := func(g int) []float64 { return ar.z64[g*samples : (g+1)*samples] }
			for i := 0; i < blockRows; i++ {
				for k := 0; k < blockCols; k++ {
					want := dot(row(i), row(blockRows+k))
					if d := math.Abs(float64(out[blockCols*i+k]) - want); d > recheckBand32(samples) {
						t.Errorf("samples=%d: band violated: %g > %g", samples, d, recheckBand32(samples))
					}
				}
			}
		}
	})
}

// TestKernelMaskMatchesScalarCompare pins the in-register candidate mask
// to the scalar rule r ≥ pos || −r ≥ neg over the kernel's own stored
// coefficients: asymmetric bounds, no negative spec (neg = +Inf),
// non-positive bounds (the region where the engine takes its dense
// fallback) and bounds equal to a coefficient, where ≥ must hold.
func TestKernelMaskMatchesScalarCompare(t *testing.T) {
	withKernelISA(t, func(t *testing.T) {
		inf := math.Inf(1)
		for _, n := range []int{1, 4, 7, 8, 9, 24, 64, 100} {
			ar := testArena(t, normalMatrix(blockRows+blockCols, n, int64(n)), PearsonCorr)
			a, b := ar.z32, ar.z32[blockRows*ar.stride32:]
			var r [12]float32
			dot3x4F32(a, b, ar.stride32, float32(inf), float32(inf), &r)
			bounds := [][2]float64{
				{0.3, 0.6}, {0.6, 0.3}, {0.2, inf}, {inf, 0.2}, {inf, inf},
				{0, inf}, {-0.1, -0.1}, {-1e-9, 0.5},
				{float64(r[5]), -float64(r[2])}, {math.Abs(float64(r[7])), math.Abs(float64(r[7]))},
			}
			for _, bd := range bounds {
				pos, neg := roundDown32(bd[0]), roundDown32(bd[1])
				var out [12]float32
				got := dot3x4F32(a, b, ar.stride32, pos, neg, &out)
				var want uint16
				for k, r := range out {
					if r >= pos || -r >= neg {
						want |= 1 << k
					}
				}
				if got != want {
					t.Errorf("n=%d bounds (%g,%g): mask %012b, scalar %012b", n, bd[0], bd[1], got, want)
				}
			}
		}
	})
}

// normalMatrix is a genes×samples matrix of independent N(0,1) values.
func normalMatrix(genes, samples int, seed int64) *Matrix {
	rng := rand.New(rand.NewSource(seed))
	m := NewMatrix(genes, samples)
	for g := 0; g < genes; g++ {
		for s := 0; s < samples; s++ {
			m.Set(g, s, rng.NormFloat64())
		}
	}
	return m
}

// bruteForcePairs is the engine's admission rule applied to every pair
// g1 < g2 with the canonical dot over the arena: the set the tiled sweep
// must return.
func bruteForcePairs(e *engine) [][]ScoredEdge {
	outs := make([][]ScoredEdge, len(e.specs))
	c := &collector{e: e, out: outs, admits: make([]int64, len(e.specs))}
	for g1 := 0; g1 < e.genes; g1++ {
		for g2 := g1 + 1; g2 < e.genes; g2++ {
			c.admit(g1, g2)
		}
	}
	return c.out
}

func sortedCopy(edges []ScoredEdge) []ScoredEdge {
	out := slices.Clone(edges)
	sortScored(out)
	return out
}

// TestTiledSweepMatchesBruteForce runs the tiled sweep on 12-row tiles
// over gene counts that are not multiples of 3, 4 or 12 (ragged last
// tiles, leftover rows and partners, diagonal tiles of every size) and
// checks the admitted pairs per spec against the brute-force rule: every
// pair once, U < V, no self pair. The spec sets cover asymmetric
// positive/negative thresholds, no negative spec, and loose specs that put
// the engine on its dense fallback.
func TestTiledSweepMatchesBruteForce(t *testing.T) {
	specSets := []struct {
		name  string
		specs []SweepSpec
		dense bool
	}{
		{"positive", []SweepSpec{{MinAbsR: 0.5, MaxP: 1}}, false},
		{"asymmetric", []SweepSpec{{MinAbsR: 0.3, MaxP: 1}, {MinAbsR: 0.6, MaxP: 1, Negative: true}}, false},
		{"negative", []SweepSpec{{MinAbsR: 0.45, MaxP: 0.2, Negative: true}}, false},
		{"dense", []SweepSpec{{MinAbsR: 0, MaxP: 1}, {MinAbsR: 0.7, MaxP: 1}}, true},
	}
	withKernelISA(t, func(t *testing.T) {
		for _, genes := range []int{1, 2, 3, 4, 5, 7, 11, 12, 13, 23, 25, 37, 50} {
			m := normalMatrix(genes, 9, int64(genes))
			ar := testArena(t, m, PearsonCorr)
			for _, ss := range specSets {
				e := newEngine(ar, ss.specs)
				e.tile = blockRows * blockCols
				if e.dense != ss.dense {
					t.Fatalf("%s: dense = %v, want %v", ss.name, e.dense, ss.dense)
				}
				got, err := e.sweep(context.Background(), 2)
				if err != nil {
					t.Fatal(err)
				}
				want := bruteForcePairs(e)
				for si := range want {
					g := sortedCopy(got[si])
					if !slices.Equal(g, want[si]) {
						t.Fatalf("genes=%d %s spec %d: sweep %d pairs, brute force %d", genes, ss.name, si, len(g), len(want[si]))
					}
				}
			}
		}
	})
}

// TestArenaPaddingStaysZero poisons a pooled arena, padding columns
// included, and checks that fill rewrites every row of both arenas, zeroes
// every float32 padding column, and that the sweep over the refilled
// arena still matches the brute-force rule.
func TestArenaPaddingStaysZero(t *testing.T) {
	m := randomMatrix(29, 13, 3, 4)
	for _, kind := range []CorrelationKind{PearsonCorr, SpearmanCorr} {
		ar := arenaFor(m.Genes, m.Samples)
		want64, err := standardizedRows(t.Context(), m, kind)
		if err != nil {
			t.Fatal(err)
		}
		for i := range ar.z64 {
			ar.z64[i] = math.NaN()
		}
		for i := range ar.z32 {
			ar.z32[i] = 1e3
		}
		if err := ar.fill(t.Context(), m, kind); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ar.z64, want64) {
			t.Fatalf("%v: refilled z64 differs from standardizedRows", kind)
		}
		for g := 0; g < m.Genes; g++ {
			for i := 0; i < ar.stride32; i++ {
				want := float32(0)
				if i < m.Samples {
					want = float32(ar.z64[g*m.Samples+i])
				}
				if v := ar.z32[g*ar.stride32+i]; v != want {
					t.Fatalf("%v: z32 row %d column %d = %v, want %v", kind, g, i, v, want)
				}
			}
		}
		e := newEngine(ar, []SweepSpec{{MinAbsR: 0.4, MaxP: 1, Negative: true}})
		e.tile = blockRows * blockCols
		got, err := e.sweep(t.Context(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteForcePairs(e); !slices.Equal(sortedCopy(got[0]), want[0]) || len(want[0]) == 0 {
			t.Fatalf("%v: sweep over refilled arena %d pairs, brute force %d", kind, len(got[0]), len(want[0]))
		}
		ar.release()
	}
}

// TestFloat32BoundsRoundDown pins the float32 candidate bounds below the
// float64 ones: roundDown32 returns the largest float32 not above x, and
// the engine's pos32/neg32 never exceed posCand/negCand.
func TestFloat32BoundsRoundDown(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := []float64{0, 1, -1, 0.95, 0.3 - 1e-12, math.Inf(1), math.Inf(-1), float64(float32(0.7))}
	for i := 0; i < 1000; i++ {
		xs = append(xs, rng.Float64()*2-1)
	}
	for _, x := range xs {
		f := roundDown32(x)
		if float64(f) > x {
			t.Fatalf("roundDown32(%v) = %v, above x", x, f)
		}
		if !math.IsInf(x, 0) && float64(math.Nextafter32(f, float32(math.Inf(1)))) <= x {
			t.Fatalf("roundDown32(%v) = %v, not the largest float32 ≤ x", x, f)
		}
	}
	ar := newArena(arenaKey{genes: 4, samples: 100})
	for _, specs := range [][]SweepSpec{
		{{MinAbsR: 0.95, MaxP: 0.0005}},
		{{MinAbsR: 0.3, MaxP: 1}, {MinAbsR: 0.6, MaxP: 1, Negative: true}},
	} {
		e := newEngine(ar, specs)
		if float64(e.pos32) > e.posCand || float64(e.neg32) > e.negCand {
			t.Fatalf("float32 bounds (%v, %v) above float64 bounds (%v, %v)", e.pos32, e.neg32, e.posCand, e.negCand)
		}
	}
}

func TestKernelISANames(t *testing.T) {
	saved := useAVXKernels
	defer func() { useAVXKernels = saved }()
	useAVXKernels = false
	if got := KernelISA(); got != "generic" {
		t.Fatalf("KernelISA() = %q, want generic", got)
	}
	useAVXKernels = true
	if got := KernelISA(); got != "avx2-fma" {
		t.Fatalf("KernelISA() = %q, want avx2-fma", got)
	}
}

// BenchmarkSweepKernel times the single-worker tiled sweep at the paper's
// thresholds over a 2040-gene standardized arena, at the two sample widths
// the synthesized workloads use, and reports useful multiply-adds (pairs ×
// samples, padding excluded) per nanosecond.
func BenchmarkSweepKernel(b *testing.B) {
	const genes = 2040
	for _, samples := range []int{64, 100} {
		res, err := Synthesize(SyntheticSpec{
			Genes: genes, Samples: samples, Modules: 16, ModuleSize: 12, Noise: 0.1, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		ar := newArena(arenaKey{genes: genes, samples: samples})
		if err := ar.fill(context.Background(), res.M, PearsonCorr); err != nil {
			b.Fatal(err)
		}
		e := newEngine(ar, []SweepSpec{DefaultNetworkOptions().SweepSpec()})
		b.Run(fmt.Sprintf("%dx%d", genes, samples), func(b *testing.B) {
			iters := 0
			for b.Loop() {
				if _, err := e.sweep(context.Background(), 1); err != nil {
					b.Fatal(err)
				}
				iters++
			}
			madds := float64(genes*(genes-1)/2) * float64(samples) * float64(iters)
			b.ReportMetric(madds/float64(b.Elapsed().Nanoseconds()), "madd/ns")
		})
	}
}
