package expr

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// withKernelISA runs f once per block-kernel level this machine supports
// (generic always; AVX2+FMA and AVX-512F when the CPU has them), as a
// subtest named by KernelISA, restoring the detected level afterwards.
// Differential coverage of every level is what lets CI on any machine
// vouch for the others.
func withKernelISA(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	saved := kernelISA
	defer func() { kernelISA = saved }()
	for level := isaGeneric; level <= saved; level++ {
		kernelISA = level
		t.Run(KernelISA(), f)
	}
}

// rawArena packs genes×n raw (unstandardized) rows into an unpooled
// arena exactly as fill lays out standardized ones, so kernel tests can
// choose the float64 rows the float32 panels are rounded from.
func rawArena(rows [][]float64, n int) *buildArena {
	ar := newArena(arenaKey{genes: len(rows), samples: n})
	for g, row := range rows {
		copy(ar.z64[g*n:(g+1)*n], row)
		put32(ar.p32, g, n, row)
	}
	return ar
}

// kernelAt runs the active kernel on rows g1..g1+5 of ar against the panel
// starting at gene q (a multiple of 16).
func kernelAt(ar *buildArena, g1, q int, pos, neg float32) (lo, hi uint64) {
	n := ar.shape.samples
	var rows [blockRows]int
	for i := range rows {
		rows[i] = offset32(g1+i, n)
	}
	return kernel6x16(ar.p32, &rows, q*n, n, pos, neg)
}

// maskBit reports bit 16·i + c of a 6×16 candidate mask.
func maskBit(lo, hi uint64, i, c int) bool {
	w := [2]uint64{lo, hi}[i/4]
	return w>>(panelGenes*(i%4)+c)&1 == 1
}

// roundUp32 returns the smallest float32 not below x, so that for every
// float32 r, r ≥ roundUp32(x) iff r ≥ x.
func roundUp32(x float64) float32 { return -roundDown32(-x) }

// kernelWithin asserts, through the mask alone, that the kernel's
// coefficient r of (row g1+i, gene q+c) lies in [want − band, want + band]
// for every pair of the block: the bit must be set under pos =
// roundUp32(want − band) (r ≥ want − band) and under neg =
// roundUp32(−want − band) (−r ≥ −want − band, i.e. r ≤ want + band). A NaN
// coefficient fails both.
func kernelWithin(t *testing.T, ar *buildArena, g1, q int, want func(i, c int) float64, band func(i, c int) float64, what string) {
	t.Helper()
	inf := float32(math.Inf(1))
	for i := 0; i < blockRows; i++ {
		for c := 0; c < panelGenes; c++ {
			w, b := want(i, c), band(i, c)
			if lo, hi := kernelAt(ar, g1, q, roundUp32(w-b), inf); !maskBit(lo, hi, i, c) {
				t.Fatalf("%s pair (%d,%d): block coefficient below canonical %g − band %g", what, g1+i, q+c, w, b)
			}
			if lo, hi := kernelAt(ar, g1, q, inf, roundUp32(-w-b)); !maskBit(lo, hi, i, c) {
				t.Fatalf("%s pair (%d,%d): block coefficient above canonical %g + band %g", what, g1+i, q+c, w, b)
			}
		}
	}
}

// TestBlockDotMatchesCanonical pins the 6×16 kernel to the canonical
// scalar dot across row widths 0..131, with the row block inside one panel
// (rows 0-5) and straddling two (rows 12-17), on every available ISA. The
// tolerance is the engine's own recheck band — the bound the sweep's
// correctness rests on — scaled by the row norms.
func TestBlockDotMatchesCanonical(t *testing.T) {
	const genes, q = 48, 32
	withKernelISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for n := 0; n <= 131; n++ {
			rows := make([][]float64, genes)
			for g := range rows {
				rows[g] = make([]float64, n)
				for i := range rows[g] {
					rows[g][i] = rng.NormFloat64()
				}
			}
			ar := rawArena(rows, n)
			for _, g1 := range []int{0, 12} {
				want := func(i, c int) float64 { return dot(rows[g1+i], rows[q+c]) }
				band := func(i, c int) float64 {
					// Raw rows are not unit-norm, so scale the band by the
					// row magnitudes they would be normalized by.
					a, b := rows[g1+i], rows[q+c]
					return recheckBand32(n) * max(math.Sqrt(dot(a, a)*dot(b, b)), 1)
				}
				kernelWithin(t, ar, g1, q, want, band, fmt.Sprintf("n=%d", n))
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
// coefficient is within recheckBand32 of the canonical one. The AVX
// coefficient is one sequential n-term FMA chain per pair, so the widths
// run up to 2048 samples.
func TestRecheckBandSoundOnStandardizedRows(t *testing.T) {
	const genes, g1, q = 48, 12, 32
	withKernelISA(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(11))
		for _, samples := range []int{3, 17, 64, 100, 333, 2048} {
			m := NewMatrix(genes, samples)
			for g := 0; g < m.Genes; g++ {
				base := rng.NormFloat64()
				for s := 0; s < samples; s++ {
					// Correlated rows so coefficients are spread over [-1, 1].
					m.Set(g, s, base*math.Sin(float64(s))+0.5*rng.NormFloat64())
				}
			}
			ar := testArena(t, m, PearsonCorr)
			row := func(g int) []float64 { return ar.z64[g*samples : (g+1)*samples] }
			want := func(i, c int) float64 { return dot(row(g1+i), row(q+c)) }
			band := func(i, c int) float64 { return recheckBand32(samples) }
			kernelWithin(t, ar, g1, q, want, band, fmt.Sprintf("samples=%d", samples))
		}
	})
}

// TestRecheckBandFormula checks the band against the sequential-chain
// error it must cover, at least u32·(n + 64) (DESIGN.md §7), and that it
// is +Inf — the dense sweep — once n·u32 exceeds 1/2.
func TestRecheckBandFormula(t *testing.T) {
	for _, n := range []int{0, 1, 100, 2048, 1 << 20, 1 << 23} {
		if b := recheckBand32(n); b < ulp32*float64(n+64) || math.IsInf(b, 0) {
			t.Fatalf("recheckBand32(%d) = %g, want finite and ≥ %g", n, b, ulp32*float64(n+64))
		}
	}
	if b := recheckBand32(1<<23 + 1); !math.IsInf(b, 1) {
		t.Fatalf("recheckBand32(2^23+1) = %g, want +Inf", b)
	}
}

// TestKernelMaskMatchesScalarCompare pins the in-register candidate mask
// to the scalar rule r ≥ pos || −r ≥ neg: asymmetric bounds, no negative
// spec (neg = +Inf), non-positive bounds (the region where the engine
// takes its dense fallback) and bounds equal to a coefficient, where ≥
// must hold. The rows hold multiples of 1/8 in [−1/2, 1/2], so every
// product and partial sum is exact in float32 and both ISAs compute each
// coefficient exactly; the scalar rule runs on those exact values.
func TestKernelMaskMatchesScalarCompare(t *testing.T) {
	const genes, q = 48, 32
	withKernelISA(t, func(t *testing.T) {
		inf := math.Inf(1)
		rng := rand.New(rand.NewSource(5))
		for _, n := range []int{1, 4, 7, 8, 9, 24, 64, 100} {
			rows := make([][]float64, genes)
			for g := range rows {
				rows[g] = make([]float64, n)
				for i := range rows[g] {
					rows[g][i] = float64(rng.Intn(9)-4) / 8
				}
			}
			ar := rawArena(rows, n)
			for _, g1 := range []int{0, 12} {
				var r [blockRows][panelGenes]float32
				for i := range r {
					for c := range r[i] {
						r[i][c] = float32(dot(rows[g1+i], rows[q+c]))
					}
				}
				bounds := [][2]float64{
					{0.3, 0.6}, {0.6, 0.3}, {0.2, inf}, {inf, 0.2}, {inf, inf},
					{0, inf}, {-0.1, -0.1}, {-1e-9, 0.5},
					{float64(r[1][5]), -float64(r[0][2])}, {math.Abs(float64(r[5][7])), math.Abs(float64(r[5][7]))},
				}
				for _, bd := range bounds {
					pos, neg := roundDown32(bd[0]), roundDown32(bd[1])
					lo, hi := kernelAt(ar, g1, q, pos, neg)
					for i := range r {
						for c, v := range r[i] {
							if want := v >= pos || -v >= neg; maskBit(lo, hi, i, c) != want {
								t.Errorf("n=%d rows %d.. bounds (%g,%g): pair (%d,%d) r=%g mask bit %v, scalar %v",
									n, g1, bd[0], bd[1], i, c, v, !want, want)
							}
						}
					}
				}
			}
		}
	})
}

// TestKernelGenericMatchesAVX is the differential test of the generic and
// AVX2 kernels on ragged shapes (partial last panels, row blocks that
// straddle panels): with the level forced to each, every mask bit
// of a pair g1 < g2 must agree unless the pair's canonical
// coefficient lies within the recheck band of a bound — the only place
// two sound prefilters may differ.
func TestKernelGenericMatchesAVX(t *testing.T) {
	if kernelISA < isaAVX2 {
		t.Skip("no AVX2+FMA on this machine")
	}
	defer func(saved isa) { kernelISA = saved }(kernelISA)
	pos, neg := roundDown32(0.3), roundDown32(0.35)
	set := 0
	for _, genes := range []int{7, 17, 49, 101} {
		for _, samples := range []int{3, 9, 37, 100} {
			ar := testArena(t, normalMatrix(genes, samples, int64(genes*samples)), PearsonCorr)
			band := recheckBand32(samples)
			for g1 := 0; g1 < genes; g1 += blockRows {
				var rows [blockRows]int
				for i := range rows {
					rows[i] = offset32(min(g1+i, genes-1), samples)
				}
				for q := 0; q < genes; q += panelGenes {
					kernelISA = isaGeneric
					glo, ghi := kernel6x16(ar.p32, &rows, q*samples, samples, pos, neg)
					kernelISA = isaAVX2
					alo, ahi := kernel6x16(ar.p32, &rows, q*samples, samples, pos, neg)
					klo, khi := blockKeep(g1, q, genes, true) // the matrix as one diagonal tile
					set += bits.OnesCount64(alo&klo) + bits.OnesCount64(ahi&khi)
					maskPairs((glo^alo)&klo, (ghi^ahi)&khi, func(i, c int) {
						u, v := g1+i, q+c
						r := dot(ar.z64[u*samples:(u+1)*samples], ar.z64[v*samples:(v+1)*samples])
						if math.Abs(r-float64(pos)) > band && math.Abs(-r-float64(neg)) > band {
							t.Errorf("genes=%d samples=%d pair (%d,%d) r=%g: generic and AVX masks differ outside the band", genes, samples, u, v, r)
						}
					})
				}
			}
		}
	}
	if set < 1000 {
		t.Fatalf("only %d candidate bits: the comparison is nearly vacuous", set)
	}
}

// pairMasks runs kernel6x32 at the given level.
func pairMasks(level isa, p []float32, rows *[blockRows]int, q, n int, pos, neg float32) [4]uint64 {
	kernelISA = level
	var m [4]uint64
	m[0], m[1], m[2], m[3] = kernel6x32(p, rows, q, n, pos, neg)
	return m
}

// pairBit reports the mask bit of row i against gene c (0..31) of the
// panel pair.
func pairBit(m [4]uint64, i, c int) bool {
	if c < panelGenes {
		return maskBit(m[0], m[1], i, c)
	}
	return maskBit(m[2], m[3], i, c-panelGenes)
}

// requireAVX512MatchesAVX2 fails unless the AVX-512 kernel's four mask
// words equal the AVX2 kernel's (two 6×16 calls) bit for bit, and returns
// the masks.
func requireAVX512MatchesAVX2(t *testing.T, p []float32, rows *[blockRows]int, q, n int, pos, neg float32, what string) [4]uint64 {
	t.Helper()
	want := pairMasks(isaAVX2, p, rows, q, n, pos, neg)
	if got := pairMasks(isaAVX512, p, rows, q, n, pos, neg); got != want {
		t.Fatalf("%s bounds (%g,%g): AVX-512 masks %016x, AVX2 %016x", what, pos, neg, got, want)
	}
	return want
}

// float32Order maps a float32 onto a monotone integer scale (±0 both map
// to 0), and orderFloat32 maps it back.
func float32Order(f float32) int64 {
	b := int64(math.Float32bits(f))
	if b&(1<<31) != 0 {
		return -(b &^ (1 << 31))
	}
	return b
}

func orderFloat32(x int64) float32 {
	if x < 0 {
		return math.Float32frombits(uint32(-x) | 1<<31)
	}
	return math.Float32frombits(uint32(x))
}

// laneCoefficient recovers the AVX2 kernel's float32 coefficient of row i
// against gene c of the panel pair from its masks alone: the largest
// float32 v with r ≥ v, by bisection over the float32 order. It reports
// false for a NaN coefficient, which clears no bound.
func laneCoefficient(p []float32, rows *[blockRows]int, q, n, i, c int) (float32, bool) {
	inf := float32(math.Inf(1))
	ge := func(x int64) bool { return pairBit(pairMasks(isaAVX2, p, rows, q, n, orderFloat32(x), inf), i, c) }
	lo, hi := float32Order(-inf), float32Order(inf)
	switch {
	case !ge(lo):
		return 0, false
	case ge(hi):
		return inf, true
	}
	for hi-lo > 1 {
		if mid := lo + (hi-lo)/2; ge(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return orderFloat32(lo), true
}

// TestKernelAVX512MatchesAVX2 pins the 6×32 AVX-512 kernel to two calls
// of the AVX2 kernel, mask for mask, for n = 1..140 over row blocks inside
// one panel, straddling two, and repeating the last gene (as a partial row
// block does), against the panel pair at gene 0 and the pair at gene 16,
// whose second panel holds padding genes. Three row mixes: multiples of
// 1/8 (every coefficient exact, so bounds can equal one), normal values,
// and normal values sprinkled with NaN, ±Inf, ±0, denormals and
// overflowing magnitudes. Besides fixed bounds (+Inf included), each mix
// bounds at coefficients the AVX2 kernel computed, recovered from its masks:
// r ≥ r₂ and r ≤ r₂ both hold only if the AVX-512 lane equals r₂ exactly.
func TestKernelAVX512MatchesAVX2(t *testing.T) {
	if kernelISA < isaAVX512 {
		t.Skip("no AVX-512F on this machine: the AVX-512 kernel cannot run here")
	}
	defer func(saved isa) { kernelISA = saved }(kernelISA)
	const genes = 40 // panels 0-2; genes 40-47 pad the last one
	inf := float32(math.Inf(1))
	specials := []float32{float32(math.NaN()), inf, -inf, 0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), math.Float32frombits(0x007fffff), -math.Float32frombits(0x00400000),
		math.MaxFloat32, -3e19}
	rng := rand.New(rand.NewSource(13))
	set := 0
	for n := 1; n <= 140; n++ {
		for mix := range 3 {
			rows := make([][]float64, genes)
			for g := range rows {
				rows[g] = make([]float64, n)
				for k := range rows[g] {
					switch {
					case mix == 0:
						rows[g][k] = float64(rng.Intn(9)-4) / 8
					case mix == 2 && rng.Intn(12) == 0:
						rows[g][k] = float64(specials[rng.Intn(len(specials))])
					default:
						rows[g][k] = float64(float32(rng.NormFloat64() / math.Sqrt(float64(n))))
					}
				}
			}
			p := rawArena(rows, n).p32
			for _, g1 := range []int{0, 12, 36} {
				var rb [blockRows]int
				for i := range rb {
					rb[i] = offset32(min(g1+i, genes-1), n)
				}
				for _, q := range []int{0, panelGenes} {
					what := fmt.Sprintf("n=%d mix %d rows %d.. panels at %d", n, mix, g1, q)
					bounds := [][2]float32{{0.3, 0.6}, {0.6, 0.3}, {0.2, inf}, {inf, 0.2}, {inf, inf}, {0, inf}, {-0.1, -0.1}}
					for _, lane := range [][2]int{{1, 5}, {5, 23}, {3, 31}} {
						if r, ok := laneCoefficient(p, &rb, q*n, n, lane[0], lane[1]); ok {
							bounds = append(bounds, [2]float32{r, inf}, [2]float32{inf, -r}, [2]float32{r, -r})
						}
					}
					for _, bd := range bounds {
						m := requireAVX512MatchesAVX2(t, p, &rb, q*n, n, bd[0], bd[1], what)
						for _, w := range m {
							set += bits.OnesCount64(w)
						}
					}
				}
			}
		}
	}
	if set < 100000 {
		t.Fatalf("only %d candidate bits: the comparison is nearly vacuous", set)
	}
}

// FuzzKernelAVX512MatchesAVX2 pins the AVX-512 kernel to the AVX2 kernel
// mask for mask over raw float32 bits (a signaling NaN reaches the arena
// quieted, as any NaN from fill would). Byte 0 picks n (1..64, low six
// bits) and the panel pair (top bit: genes 0-31, or 16-47 whose last 8
// are padding), byte 1 the first row of the block, bytes 2-9 the bounds
// pos and neg, and the rest, read as little-endian float32 words and
// cycled, fills the 40 genes sample by sample.
func FuzzKernelAVX512MatchesAVX2(f *testing.F) {
	if kernelISA < isaAVX512 {
		f.Skip("no AVX-512F on this machine: the AVX-512 kernel cannot run here")
	}
	word := func(ws ...uint32) []byte {
		var out []byte
		for _, w := range ws {
			out = binary.LittleEndian.AppendUint32(out, w)
		}
		return out
	}
	// Value word counts prime to 16, so the two panels differ; the last
	// seed's coefficients all equal its pos bound.
	f.Add(append([]byte{7, 12}, word(0x3e99999a, 0x3f19999a, 0x3f000000, 0xbf000000, 0x3e800000, 0x3f400000, 0x3dcccccd)...))
	f.Add(append([]byte{0x80 | 33, 36}, word(0x3e800000, 0x7f800000, 0x7fc00000, 0x7f800000, 0xff800000, 0x00000001, 0x80400000, 0x3f800000, 0x3f19999a)...))
	f.Add(append([]byte{63, 3}, word(0x00000000, 0x00000000, 0x7f7fffff, 0x5f000000, 0x3f800000)...))
	f.Add(append([]byte{0, 0}, word(0x3e800000, 0x7f800000, 0x3f000000)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		const genes = 40
		if len(data) < 14 {
			return
		}
		defer func(saved isa) { kernelISA = saved }(kernelISA)
		n := 1 + int(data[0]&63)
		q := panelGenes * int(data[0]>>7)
		pos := math.Float32frombits(binary.LittleEndian.Uint32(data[2:]))
		neg := math.Float32frombits(binary.LittleEndian.Uint32(data[6:]))
		vals := data[10:]
		words := len(vals) / 4
		rows := make([][]float64, genes)
		for g := range rows {
			rows[g] = make([]float64, n)
			for k := range rows[g] {
				w := (g*n + k) % words
				rows[g][k] = float64(math.Float32frombits(binary.LittleEndian.Uint32(vals[4*w:])))
			}
		}
		var rb [blockRows]int
		for i := range rb {
			rb[i] = offset32(min(int(data[1])%genes+i, genes-1), n)
		}
		requireAVX512MatchesAVX2(t, rawArena(rows, n).p32, &rb, q*n, n, pos, neg, fmt.Sprintf("n=%d panels at %d", n, q))
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

// TestTiledSweepMatchesBruteForce runs the tiled sweep on 48-row tiles
// over gene counts on and off multiples of 6, 16 and 48 (ragged last
// tiles, partial row blocks and panels, diagonal tiles of every size) and
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
		for _, genes := range []int{1, 2, 5, 6, 7, 11, 15, 16, 17, 23, 47, 48, 49, 50, 97, 101} {
			m := normalMatrix(genes, 9, int64(genes))
			ar := testArena(t, m, PearsonCorr)
			for _, ss := range specSets {
				e := newEngine(ar, ss.specs)
				e.tile = tileBlock
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

// TestArenaPaddingStaysZero poisons a pooled arena, panel padding
// included, and checks that fill rewrites every row of both arenas, lays
// every gene out at offset32 with a 16-float step per sample, zeroes the
// padding genes of the last panel, and that the sweep over the refilled
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
		for i := range ar.p32 {
			ar.p32[i] = 1e3
		}
		if err := ar.fill(t.Context(), m, kind); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(ar.z64, want64) {
			t.Fatalf("%v: refilled z64 differs from standardizedRows", kind)
		}
		if want := 2 * panelGenes * m.Samples; len(ar.p32) != want {
			t.Fatalf("%v: p32 holds %d floats, want %d (two panels)", kind, len(ar.p32), want)
		}
		for g := 0; g < 2*panelGenes; g++ {
			for k := 0; k < m.Samples; k++ {
				want := float32(0)
				if g < m.Genes {
					want = float32(ar.z64[g*m.Samples+k])
				}
				if v := ar.p32[offset32(g, m.Samples)+panelGenes*k]; v != want {
					t.Fatalf("%v: p32 gene %d sample %d = %v, want %v", kind, g, k, v, want)
				}
			}
		}
		e := newEngine(ar, []SweepSpec{{MinAbsR: 0.4, MaxP: 1, Negative: true}})
		e.tile = tileBlock
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

// TestSweepBoundaryPairs plants perfectly correlated pairs (copies and
// negated copies) at every 6-row-block, 16-gene-panel and 48-row-tile
// edge — in the ragged last panel, on diagonal and off-diagonal tiles and
// at the last gene — and checks that the sweep on 48-row tiles returns
// exactly the brute-force canonical edge set, on every ISA.
func TestSweepBoundaryPairs(t *testing.T) {
	opts := NetworkOptions{Kind: PearsonCorr, MinAbsR: 0.9, MaxP: 1, Negative: true}
	for _, genes := range []int{1, 5, 6, 7, 15, 16, 17, 47, 48, 49, 1031} {
		for _, samples := range []int{1, 2, 7, 37, 64, 100, 2048} {
			m := normalMatrix(genes, samples, int64(genes*7919+samples))
			for _, b := range boundaryGenes(genes) {
				// Alternate the planted partner between the row above (a
				// diagonal-tile pair across the edge) and a row one tile
				// and a bit back (an off-diagonal pair), and the sign.
				src, sign := b-1, 1.0
				if b%2 == 0 {
					src = max(b-tileBlock-5, 0)
				}
				if b%3 == 0 {
					sign = -1
				}
				for s := 0; s < samples; s++ {
					m.Set(b, s, sign*m.At(src, s))
				}
			}
			want := referencePairs(t, m, opts)
			withKernelISA(t, func(t *testing.T) {
				e := newEngine(testArena(t, m, opts.Kind), []SweepSpec{opts.SweepSpec()})
				e.tile = tileBlock
				got, err := e.sweep(t.Context(), 2)
				if err != nil {
					t.Fatal(err)
				}
				if g := sortedCopy(got[0]); !slices.Equal(g, want) {
					t.Fatalf("genes=%d samples=%d: sweep %d pairs, brute force %d", genes, samples, len(g), len(want))
				}
			})
		}
	}
}

// boundaryGenes lists the genes in [1, genes) on either side of every
// 6-row-block, 16-gene-panel and 48-row-tile edge, plus the last gene.
func boundaryGenes(genes int) []int {
	var out []int
	for g := 1; g < genes; g++ {
		edge := g%blockRows == 0 || g%panelGenes == 0 || g%tileBlock == 0
		next := (g+1)%blockRows == 0 || (g+1)%panelGenes == 0 || (g+1)%tileBlock == 0
		if edge || next || g == genes-1 {
			out = append(out, g)
		}
	}
	return out
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
	defer func(saved isa) { kernelISA = saved }(kernelISA)
	for level, want := range []string{"generic", "avx2-fma", "avx512f"} {
		kernelISA = isa(level)
		if got := KernelISA(); got != want {
			t.Fatalf("KernelISA() at level %d = %q, want %q", level, got, want)
		}
	}
}

// BenchmarkSweepKernel times the single-worker tiled sweep at the paper's
// thresholds over standardized arenas at the sample widths the synthesized
// workloads use — 2040 genes (a ragged last panel) and 4096×100, the
// synth-cold workload's dominant class — and reports useful multiply-adds
// (pairs × samples, padding excluded) per nanosecond. Under -v it logs the
// active kernel level, so a benchmark log shows which kernel it measured.
func BenchmarkSweepKernel(b *testing.B) {
	b.Logf("kernel ISA: %s", KernelISA())
	for _, shape := range []struct{ genes, samples int }{{2040, 64}, {2040, 100}, {4096, 100}} {
		genes, samples := shape.genes, shape.samples
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
