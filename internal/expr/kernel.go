package expr

import "math"

// The register-tiled micro-kernel of the all-pairs sweep.
//
// One kernel call correlates three consecutive standardized rows a0..a2
// against four consecutive partner rows b0..b3: twelve dot products from
// one pass over seven rows, so each step loads 3+4 vectors for 12
// multiply-accumulates. On amd64 with AVX2+FMA (detected at runtime,
// kernel_amd64.s) the twelve accumulators live in YMM registers, are
// reduced by a hadd/permute transpose, and are compared against the
// candidate bounds in registers; the portable Go kernel below has the same
// 3×4 shape and contract.
//
// The float32 arena's rows are zero-padded to a stride that is a multiple
// of the lane width (lanes32), so the kernel loops over whole vectors with
// no scalar tail; the padding contributes exact zeros to every sum.
//
// Mask contract: bit 4·i+k of the returned mask is set iff the
// coefficient r of (a_i, b_k) satisfies r ≥ pos || −r ≥ neg; NaN sets no
// bit. The twelve coefficients are also stored to out[4·i+k].
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

const (
	blockRows = 3 // rows per micro-kernel call
	blockCols = 4 // partners per micro-kernel call
	lanes32   = 8 // float32 lanes per YMM register
)

// rowStride is the padded float32 row length for samples columns: the
// next multiple of lanes32.
func rowStride(samples int) int {
	return (samples + lanes32 - 1) / lanes32 * lanes32
}

// dot3x4F32 correlates the three rows a[i·stride:(i+1)·stride] against
// the four rows b[k·stride:(k+1)·stride] of a float32 arena and returns
// the candidate mask (see the mask contract above). stride must be a
// multiple of lanes32. The engine passes bounds rounded down to float32
// (roundDown32), so the float32 compare nominates a superset of what a
// float64 compare of the same coefficient would.
func dot3x4F32(a, b []float32, stride int, pos, neg float32, out *[12]float32) uint16 {
	a, b = a[:blockRows*stride], b[:blockCols*stride]
	if useAVXKernels && stride > 0 {
		return dot3x4F32AVX(&a[0], &b[0], stride, pos, neg, out)
	}
	return dot3x4F32Generic(a, b, stride, pos, neg, out)
}

// dot3x4F32Generic is the portable 3×4 kernel: twelve scalar
// accumulators, seven loads per twelve multiply-adds. Products of two
// float32 values are exact in float64, so it accumulates in float64 — the
// portable path carries no float32 accumulation error, only the conversion
// error of the arena and one final rounding to float32.
func dot3x4F32Generic(a, b []float32, stride int, pos, neg float32, out *[12]float32) uint16 {
	n := stride
	a0, a1, a2 := a[:n], a[n:2*n], a[2*n:3*n]
	b0, b1, b2, b3 := b[:n], b[n:2*n], b[2*n:3*n], b[3*n:4*n]
	var s [12]float64
	for i, v := range a0 {
		x0, x1, x2 := float64(v), float64(a1[i]), float64(a2[i])
		y0, y1, y2, y3 := float64(b0[i]), float64(b1[i]), float64(b2[i]), float64(b3[i])
		s[0] += x0 * y0
		s[1] += x0 * y1
		s[2] += x0 * y2
		s[3] += x0 * y3
		s[4] += x1 * y0
		s[5] += x1 * y1
		s[6] += x1 * y2
		s[7] += x1 * y3
		s[8] += x2 * y0
		s[9] += x2 * y1
		s[10] += x2 * y2
		s[11] += x2 * y3
	}
	var mask uint16
	for k, r := range s {
		r32 := float32(r)
		if r32 >= pos || -r32 >= neg {
			mask |= 1 << k
		}
		out[k] = r32
	}
	return mask
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
//   - conversion: each z32 element is z64·(1+δ), |δ| ≤ u32, so the exact
//     product sum moves by ≤ (2u32 + u32²)·Σ|aᵢbᵢ| ≤ 2.01·u32;
//   - accumulation (AVX): each pair owns one 8-lane accumulator, so every
//     lane is an FMA chain of ⌈n/8⌉ terms, followed by a 3-level
//     reduction (hadd, hadd, 128-bit add): ≤ (⌈n/8⌉ + 3)·u32·(1 + 2.01·u32);
//   - accumulation (portable): exact float64 products and sums, ≤ n·2⁻⁵²,
//     plus one rounding of the result to float32, ≤ u32;
//   - the canonical float64 dot's own error, ≤ n·2⁻⁵², is negligible.
//
// The AVX total stays below (n/8 + 6)·u32, inside the band u32·(n/2 + 64)
// at every n with a margin of ≥ 3n/8 + 58 ulps. At n = 2048 the band is
// ≈ 6.5e-5, still ~4 orders of magnitude below the paper's admission
// thresholds.
func recheckBand32(samples int) float64 {
	return ulp32 * (float64(samples)/2 + 64)
}

// KernelISA names the active block-kernel implementation, for /statsz,
// benchmarks, and BENCH_*.json provenance.
func KernelISA() string {
	if useAVXKernels {
		return "avx2-fma"
	}
	return "generic"
}
