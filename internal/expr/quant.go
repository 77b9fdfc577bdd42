package expr

import "math"

// The int8 prefilter: kernel6x32 over rows quantized to bytes.
//
// The block kernel only nominates candidates (kernel.go), so it may use
// any arithmetic whose error it can bound. On AVX-512 VNNI machines a
// sweep with selective thresholds quantizes its standardized rows onto one
// global int8 grid and correlates them with VPDPBUSD, which does four
// byte multiply-adds per 32-bit lane — four times an FMA's work per
// instruction at the same issue rate.
//
// Quantization. With M = max|z| over the whole arena (NaN ignored) and
// s = M/127, every element becomes q = RoundToEven(z/s) ∈ [−127, 127],
// and NaN becomes 0. The integer dot D = Σ q_a·q_b is exact, and s²·D
// approximates the coefficient r = Σ z_a·z_b.
//
// Layout (buildArena.p8). Panels of 16 genes, as in the float32 arena,
// each split into quads of 4 samples: quad j of a panel is 64 bytes, gene
// c's samples 4j..4j+3 at bytes 4c..4c+3 (zero past the last sample). So a
// gene's quad j sits 64·j bytes after its quad 0 (offset8), a row's 4
// samples are one dword, and one quad of a whole panel is one ZMM load.
// One spare zero panel follows the last, so every call is a full 6×32:
// the second panel of a call that starts on the last panel is the spare.
//
// Operand signs. VPDPBUSD multiplies unsigned bytes of its register
// operand by signed bytes of its memory operand, and only the memory
// operand can be broadcast, so the row's dword is the signed operand and
// the panel is loaded XOR 0x80, i.e. as u = q + 128 ∈ [1, 255]. The kernel
// therefore sums D′ = D + 128·Σq_row, where Σq_row is the row's own sum
// (buildArena.rowSum), and folds the correction into per-row bounds:
// D ≥ P ⇔ D′ ≥ P + 128·Σq_row (rowBounds). |D′| ≤ 255·127·n, below 2³¹
// for n ≤ quantMaxSamples.
//
// The band. For unit-norm rows write q = z/s + e with |e| ≤ 1/2. Then
// D − r/s² = Σ(z_a e_b + z_b e_a)/s + Σ e_a e_b, and by Cauchy-Schwarz
// Σ|z| ≤ √n, so |s²·D − r| ≤ s·√n + n·s²/4 = quantBand. The float64
// error of z·(1/s), of the row norms and of the canonical dot is below
// n·2⁻⁵⁰, while one integer step is s² ≥ 1/(127²·n), more than 30 times
// larger at n = quantMaxSamples; the integer bound
// quantBound(t) = ⌊(t − band)/s²⌋ − 1 spends that step as the slack. So a
// pair whose canonical |r| clears t always has D ≥ quantBound(t) (or
// D ≤ −quantBound(t)), and the canonical recheck decides it as before.
//
// Selection. The int8 band is wider than the float32 one (about 0.03–0.04
// on standardized Gaussian rows, at any n), so it nominates more pairs
// for the canonical recheck; the path runs only while the bound stays
// selective (quantSelective, a measured crossover).

const (
	quadSamples     = 4                        // samples per VPDPBUSD dword
	quadBytes       = panelGenes * quadSamples // one quad of one panel
	quantLevels     = 127                      // q ∈ [−127, 127]
	quantMaxSamples = 1 << 16                  // 255·127·n < 2³¹
	// quantNever is an integer bound no dot reaches: a threshold of +Inf
	// (no sign gate) or the unattainable criticalR sentinel.
	quantNever = int64(1) << 40
)

// quantBounds holds one row block's bounds on D′: the pair of row i and
// panel gene c is a candidate iff D′ ≥ b[i] or D′ ≤ b[blockRows+i].
type quantBounds [2 * blockRows]int32

// int8Portable lets the engine choose the int8 path below isaVNNI, where
// kernel6x32Int8 runs its portable Go kernel. Only tests set it, so that
// machines without VNNI still cover quantization, bounds and the sweep.
var int8Portable bool

// quads is the number of 4-sample quads of a row of the given length.
func quads(samples int) int { return (samples + quadSamples - 1) / quadSamples }

// offset8 is the p8 offset of gene g's quad 0 in an arena of nq quads.
func offset8(g, nq int) int {
	return g/panelGenes*quadBytes*nq + quadSamples*(g%panelGenes)
}

// quant8 maps z onto the int8 grid of step 1/inv. Adding 1.5·2⁵² rounds
// z·inv to the nearest integer, ties to even, into the low mantissa bits;
// |z·inv| ≤ 127 (1 + 2⁻⁵¹) because inv comes from max|z|, and the clamp
// only guards that. NaN maps to 0.
func quant8(z, inv float64) int32 {
	const roundMagic = 0x1.8p52
	q := int32(math.Float64bits(float64(z*inv) + roundMagic))
	if z != z {
		q = 0
	}
	return min(max(q, -quantLevels), quantLevels)
}

// quantBand is band8, the bound on |s²·D − r| for unit-norm rows of n
// samples on the grid of step s (see the header).
func quantBand(samples int, s float64) float64 {
	n := float64(samples)
	return s*math.Sqrt(n) + n*s*s/4
}

// quantBound is the integer candidate bound for threshold t:
// ⌊(t − band)/s²⌋ − 1, or quantNever when t is out of reach.
func quantBound(t, band, s2 float64) int64 {
	x := math.Floor((t-band)/s2) - 1
	if !(x < float64(quantNever)) {
		return quantNever
	}
	return int64(x)
}

// rowBounds turns the bounds D ≥ pos and D ≤ −neg on a row's plain
// integer dot into bounds on the kernel's D′ = D + 128·sum, where sum is
// the row's Σq, clamped to int32: a clamped bound lies outside the
// attainable |D′| ≤ 255·127·quantMaxSamples < 2³¹ − 1.
func rowBounds(pos, neg int64, sum int32) (ge, le int32) {
	corr := 128 * int64(sum)
	clamp := func(x int64) int32 { return int32(min(max(x, math.MinInt32), math.MaxInt32)) }
	return clamp(pos + corr), clamp(-neg + corr)
}

// quantMinZ sets where the int8 prefilter stops paying for its extra
// rechecks. Its band nominates the pairs with |r| ≥ t − band8 where the
// float32 one nominates |r| ≥ t − recheckBand32 ≈ t; under no correlation
// a coefficient of n samples spreads about ±1/√n, so the extra rechecks
// fall with x·√n, x = t − band8, while the kernel's saving per pair is
// fixed. Single-worker sweeps of synthesized 2048-gene matrices at
// n = 16..1024 and t = 0.15..0.7 (DESIGN.md §7) had the float32 kernel
// ahead or tied up to x·√n ≈ 2.2 and the int8 one ahead from 2.6 on.
const quantMinZ = 2.5

// quantSelective reports whether the int8 bounds for the thresholds pos
// and neg (+Inf: no sign gate) stay selective for rows of n samples
// at the given band.
func quantSelective(pos, neg, band float64, samples int) bool {
	rn := math.Sqrt(float64(samples))
	return (pos-band)*rn >= quantMinZ && (neg-band)*rn >= quantMinZ
}

// kernel6x32Int8 correlates the six rows whose quad 0 sits at p8 offsets
// rows[0..5] against the two adjacent int8 panels whose quad 0 starts at
// offsets q and q + 64·nq, over nq quads, and returns the same candidate
// masks as kernel6x32 under the per-row bounds b on D′.
func kernel6x32Int8(p []byte, rows *[blockRows]int, q, nq int, b *quantBounds) (lo0, hi0, lo1, hi1 uint64) {
	if kernelISA < isaVNNI {
		return kernel6x32Int8Generic(p, rows, q, nq, b)
	}
	// The assembly reads 64·nq bytes from each panel and 64·(nq−1) + 4
	// from each row base; these bounds checks keep every read inside p.
	last := quadBytes * (nq - 1)
	_ = p[q+2*quadBytes*nq-1]
	for _, off := range rows {
		_ = p[off+last+quadSamples-1]
	}
	return kernel6x32VNNI(&p[rows[0]], &p[rows[1]], &p[rows[2]], &p[rows[3]], &p[rows[4]], &p[rows[5]],
		&p[q], nq, b)
}

// kernel6x32Int8Generic is the portable int8 kernel: the same exact D′
// and compares as the VNNI kernel.
func kernel6x32Int8Generic(p []byte, rows *[blockRows]int, q, nq int, b *quantBounds) (lo0, hi0, lo1, hi1 uint64) {
	var d [blockRows][2 * panelGenes]int32
	for j := 0; j < nq; j++ {
		for pn := range 2 {
			y := p[q+quadBytes*(nq*pn+j):][:quadBytes]
			for i, off := range rows {
				x := p[off+quadBytes*j:][:quadSamples]
				for c := range panelGenes {
					var s int32
					for t, v := range x {
						s += int32(y[quadSamples*c+t]^0x80) * int32(int8(v))
					}
					d[i][panelGenes*pn+c] += s
				}
			}
		}
	}
	var m [4]uint64
	for i := range d {
		for c, v := range d[i] {
			if v >= b[i] || v <= b[blockRows+i] {
				m[2*(c/panelGenes)+i/4] |= 1 << (panelGenes*(i%4) + c%panelGenes)
			}
		}
	}
	return m[0], m[1], m[2], m[3]
}
