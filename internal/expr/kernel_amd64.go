//go:build amd64

package expr

// x86HasAVX2FMA reports CPU+OS support for the AVX2/FMA kernel
// (kernel_amd64.s): CPUID leaf 1 ECX bits FMA|OSXSAVE|AVX, XCR0 bits
// SSE|AVX, and CPUID leaf 7 EBX bit AVX2.
func x86HasAVX2FMA() bool

// x86HasAVX512F reports CPU+OS support for the AVX-512F kernel: CPUID leaf
// 1 ECX bit OSXSAVE, XCR0 bits SSE|AVX|opmask|ZMM_Hi256|Hi16_ZMM, and
// CPUID leaf 7 EBX bit AVX512F.
func x86HasAVX512F() bool

// x86HasVNNI reports CPUID leaf 7 ECX bit AVX512_VNNI; detectISA asks only
// after x86HasAVX512F, which covers the OS state the VNNI kernel needs.
func x86HasVNNI() bool

// kernel6x16AVX is the AVX2+FMA kernel6x16 (float32 lanes and
// accumulation): rows a0..a5 against the 16-gene panel at b, n ≥ 1
// samples, every base stepping 16 floats per sample. It takes the
// negative bound as mneg = −neg.
//
//go:noescape
func kernel6x16AVX(a0, a1, a2, a3, a4, a5, b *float32, n int, pos, mneg float32) (lo, hi uint64)

// kernel6x32AVX512 is the AVX-512F kernel6x32: rows a0..a5 against the
// two 16-gene panels at b and b + 16·n floats, n ≥ 1 samples, with the
// same float32 FMA chain per lane and the same compares as kernel6x16AVX.
//
//go:noescape
func kernel6x32AVX512(a0, a1, a2, a3, a4, a5, b *float32, n int, pos, mneg float32) (lo0, hi0, lo1, hi1 uint64)

// kernel6x32VNNI is the AVX-512 VNNI kernel6x32Int8: rows a0..a5 against
// the two int8 panels at b and b + 64·nq bytes, nq ≥ 1 quads of 4
// samples, every base stepping 64 bytes per quad.
//
//go:noescape
func kernel6x32VNNI(a0, a1, a2, a3, a4, a5, b *byte, nq int, bounds *quantBounds) (lo0, hi0, lo1, hi1 uint64)

// rankCountAVX is ranker.rankCount's AVX2 kernel: for each of the n values
// at x (n a positive multiple of 4), out[i] = lt + (eq+1)/2, where lt
// counts the values below x[i] and eq those equal to it.
//
//go:noescape
func rankCountAVX(x, out *float64, n int)
