package expr

import (
	"math"
	"math/bits"
)

// The outer-product micro-kernels of the all-pairs sweep.
//
// One kernel6x16 call correlates six standardized rows against the
// sixteen genes of one panel of the float32 arena (arena.go): 96 dot
// products from one pass over the samples. The arena is panel-major —
// panel p holds genes 16p..16p+15 k-major, so sample k of the whole panel
// is 16 consecutive floats (64 bytes) and sample k of one gene sits 64
// bytes after sample k−1 in whatever panel holds it. Per sample, the
// AVX2+FMA kernel (kernel_amd64.s) loads the panel's 16 values as two YMM
// vectors, broadcasts each of the six rows' values, and issues 12 FMAs
// into 12 accumulators that stay in registers for the whole call; the
// portable Go kernel below has the same 6×16 shape and contract.
//
// kernel6x32 correlates the same six rows against two adjacent panels.
// On AVX-512F machines it is one call of the 6×32 ZMM kernel: per sample
// 2 panel loads, 6 broadcasts and 12 FMAs into 12 ZMM accumulators, twice
// the AVX2 kernel's work per instruction. Twelve independent accumulator
// chains are what keep the FMA units busy: an FMA has a latency of about
// four cycles and two issue per cycle, so at least eight chains must be in
// flight, and a 6×16 ZMM kernel's six chains leave it latency-bound.
// Elsewhere kernel6x32 is two kernel6x16 calls, and so is the odd last
// panel of a row block on every machine.
//
// On AVX-512 VNNI machines a sweep whose thresholds leave room for it
// runs the int8 kernel6x32Int8 instead (quant.go): the same 6×32 shape
// over a byte copy of the rows quantized onto one global scale, with 12
// VPDPBUSD per 4 samples, and integer bounds widened by the quantization
// band. It returns the same masks to the same canonical recheck.
//
// The kernels are selected once, by CPUID (kernelISA), and the int8 path
// per sweep by a fixed rule on its thresholds and shape
// (engine.setCandidateBounds); no option, flag or environment variable
// changes either choice.
//
// Mask contract: bit 16·i + c of a panel's 96-bit mask (lo holds rows
// 0–3, hi rows 4–5) is set iff the coefficient r of (row i, panel gene c)
// satisfies r ≥ pos || −r ≥ neg; NaN sets no bit. (The int8 kernels
// compare an exact integer dot against per-row integer bounds instead;
// see quant.go.) The float32 kernels compare
// their accumulators lane by lane — there is no horizontal reduction —
// and return only the masks. Each lane of the AVX-512 kernel is the AVX2
// kernel's FMA chain, fma(a[k], b[k][c], acc) in sample order from 0, and
// it compares with the same GE_OQ and LE_OQ predicates into opmask
// registers, so its masks equal the AVX2 kernel's bit for bit.
//
// The block kernel is a PREFILTER, never a decider. Whatever ISA produced
// a block coefficient, a pair is admitted or rejected only by the
// canonical scalar dot (engine.go) over the float64 arena, and only pairs
// whose block coefficient clears an admission threshold minus a sound
// recheck band reach it. That architecture is what makes the edge set
// byte-identical to the per-pair float64 rule on machines with and without
// AVX2 — recheckBand32 bounds the block-vs-canonical error, so no
// admissible pair can be filtered out. See DESIGN.md §7 for the bound
// derivation.

// isa is a block-kernel implementation level; each level includes the
// kernels of the levels below it.
type isa uint8

const (
	isaGeneric isa = iota // portable Go kernels
	isaAVX2               // AVX2+FMA kernel6x16 and rankCountAVX
	isaAVX512             // plus the AVX-512F kernel6x32
	isaVNNI               // plus the AVX-512 VNNI int8 kernel6x32Int8
)

// kernelISA is the active level: the highest this machine supports. It is
// a variable, not a constant, so tests can force each lower level and
// differential-test the implementations against each other.
var kernelISA = detectISA()

// detectISA reports the highest kernel level the CPU and OS support. The
// AVX-512 level also runs the AVX2 kernel (odd panels, ranks), so it
// requires both, and the VNNI level falls back to the float32 kernels
// whenever its int8 band is too wide, so it requires all three.
func detectISA() isa {
	switch {
	case !x86HasAVX2FMA():
		return isaGeneric
	case !x86HasAVX512F():
		return isaAVX2
	case x86HasVNNI():
		return isaVNNI
	}
	return isaAVX512
}

const (
	blockRows  = 6  // rows per micro-kernel call
	panelGenes = 16 // genes per arena panel = partners per micro-kernel call
)

// kernel6x16 correlates the six rows whose sample 0 sits at arena offsets
// rows[0..5] against the panel whose sample 0 starts at offset q, over n
// samples of the panel-major arena p, and returns the candidate mask (see
// the mask contract above). The engine passes bounds rounded down to
// float32 (roundDown32), so the float32 compare nominates a superset of
// what a float64 compare of the same coefficient would.
func kernel6x16(p []float32, rows *[blockRows]int, q, n int, pos, neg float32) (lo, hi uint64) {
	if kernelISA < isaAVX2 || n == 0 {
		return kernel6x16Generic(p, rows, q, n, pos, neg)
	}
	// The assembly reads 16·n floats from each base; these bounds checks
	// keep every one of those reads inside p.
	last := panelGenes * (n - 1)
	_ = p[q+last+panelGenes-1]
	for _, off := range rows {
		_ = p[off+last]
	}
	return kernel6x16AVX(&p[rows[0]], &p[rows[1]], &p[rows[2]], &p[rows[3]], &p[rows[4]], &p[rows[5]],
		&p[q], n, pos, -neg)
}

// kernel6x32 is kernel6x16 against the two adjacent panels whose sample 0
// starts at offsets q and q + 16·n, returning the first panel's mask in
// lo0, hi0 and the second's in lo1, hi1.
func kernel6x32(p []float32, rows *[blockRows]int, q, n int, pos, neg float32) (lo0, hi0, lo1, hi1 uint64) {
	if kernelISA < isaAVX512 || n == 0 {
		lo0, hi0 = kernel6x16(p, rows, q, n, pos, neg)
		lo1, hi1 = kernel6x16(p, rows, q+panelGenes*n, n, pos, neg)
		return lo0, hi0, lo1, hi1
	}
	// The assembly reads 16·n floats from each panel and 16·(n−1) + 1
	// from each row base; these bounds checks keep every read inside p.
	last := panelGenes * (n - 1)
	_ = p[q+panelGenes*n+last+panelGenes-1]
	for _, off := range rows {
		_ = p[off+last]
	}
	return kernel6x32AVX512(&p[rows[0]], &p[rows[1]], &p[rows[2]], &p[rows[3]], &p[rows[4]], &p[rows[5]],
		&p[q], n, pos, -neg)
}

// kernel6x16Generic is the portable 6×16 kernel. Products of two float32
// values are exact in float64, so it accumulates in float64 — the
// portable path carries no float32 accumulation error, only the
// conversion error of the arena and one final rounding to float32.
func kernel6x16Generic(p []float32, rows *[blockRows]int, q, n int, pos, neg float32) (lo, hi uint64) {
	var s [blockRows][panelGenes]float64
	for k := 0; k < n; k++ {
		y := p[q+panelGenes*k:][:panelGenes]
		for i, off := range rows {
			x := float64(p[off+panelGenes*k])
			for c, v := range y {
				s[i][c] += x * float64(v)
			}
		}
	}
	var m [2]uint64
	for i := range s {
		for c, r := range s[i] {
			if r32 := float32(r); r32 >= pos || -r32 >= neg {
				m[i/4] |= 1 << (panelGenes*(i%4) + c)
			}
		}
	}
	return m[0], m[1]
}

// blockKeep is the mask of the 6×16 block pairs (g1+i, q+c) the sweep
// owns: partners below hi2 and, on a diagonal tile, partners above their
// row (q+c > g1+i). Rows need no bound of their own: a partial row block
// exists only in the last tile, which is swept only against itself, so
// the diagonal rule already drops every row past the last gene.
func blockKeep(g1, q, hi2 int, diag bool) (lo, hi uint64) {
	var m [2]uint64
	cols := uint64(1)<<min(hi2-q, panelGenes) - 1
	for i := range blockRows {
		row := cols
		if d := g1 + i + 1 - q; diag && d > 0 {
			row &^= uint64(1)<<min(d, panelGenes) - 1
		}
		m[i/4] |= row << (panelGenes * (i % 4))
	}
	return m[0], m[1]
}

// maskPairs calls f(i, c) for every set bit of a 6×16 candidate mask, in
// bit order.
func maskPairs(lo, hi uint64, f func(i, c int)) {
	for w, m := range [2]uint64{lo, hi} {
		for ; m != 0; m &= m - 1 {
			b := bits.TrailingZeros64(m)
			f(4*w+b/panelGenes, b%panelGenes)
		}
	}
}

// roundDown32 returns the largest float32 not above x (±Inf map to
// themselves), so a float32 candidate bound never rejects a coefficient
// the float64 bound would nominate.
func roundDown32(x float64) float32 {
	f := float32(x)
	if float64(f) > x {
		f = math.Nextafter32(f, float32(math.Inf(-1)))
	}
	return f
}

const ulp32 = 1.0 / (1 << 24) // float32 unit roundoff 2⁻²⁴

// recheckBand32 bounds |float32-block r − canonical float64 r| for
// unit-norm rows of n samples (DESIGN.md §7 has the derivation):
//   - conversion: each arena element is z64·(1+δ), |δ| ≤ u32, so the
//     exact product sum moves by ≤ (2u32 + u32²)·Σ|aᵢbᵢ| ≤ 2.01·u32;
//   - accumulation (AVX): each pair is one lane of one accumulator, a
//     sequential chain of n FMAs with one rounding each, so the error is
//     ≤ u32·Σₖ|ŝₖ| over the partial sums; |ŝₖ| ≤ P + err with
//     P = Σ|aᵢbᵢ| ≤ 1 + 2.01·u32, hence ≤ n·u32·P / (1 − n·u32);
//   - accumulation (portable): exact float64 products and sums, ≤ n·2⁻⁵²,
//     plus one rounding of the result to float32, ≤ u32;
//   - the canonical float64 dot's own error, ≤ n·2⁻⁵², is negligible.
//
// For n·u32 ≤ 1/2 the AVX total stays below u32·(n/(1 − n·u32) + 5) (the
// P − 1 share of the chain term is ≤ 2.01·u32 there), so the band
// u32·(n/(1 − n·u32) + 64) keeps a margin of ≥ 59 ulps at every n;
// above n·u32 = 1/2 no finite band is claimed and the sweep runs dense. At
// n = 2048 the band is ≈ 1.26e-4, still ~4 orders of magnitude below the
// paper's admission thresholds.
func recheckBand32(samples int) float64 {
	nu := float64(samples) * ulp32
	if nu > 0.5 {
		return math.Inf(1)
	}
	return ulp32 * (float64(samples)/(1-nu) + 64)
}

// KernelISA names the active block-kernel implementation, for /statsz,
// benchmarks, and BENCH_*.json provenance.
func KernelISA() string {
	switch kernelISA {
	case isaVNNI:
		return "avx512vnni"
	case isaAVX512:
		return "avx512f"
	case isaAVX2:
		return "avx2-fma"
	}
	return "generic"
}
