//go:build amd64

package expr

// useAVXKernels gates the assembly block kernel on runtime CPU support:
// AVX2 and FMA instruction sets plus OS-enabled YMM state (OSXSAVE/XCR0).
// It is a variable, not a constant, so tests can force the generic path
// and differential-test the two implementations against each other.
var useAVXKernels = x86HasAVX2FMA()

// x86HasAVX2FMA reports CPU+OS support for the AVX2/FMA kernel
// (kernel_amd64.s): CPUID leaf 1 ECX bits FMA|OSXSAVE|AVX, XCR0 bits
// SSE|AVX, and CPUID leaf 7 EBX bit AVX2.
func x86HasAVX2FMA() bool

// kernel6x16AVX is the AVX2+FMA kernel6x16 (float32 lanes and
// accumulation): rows a0..a5 against the 16-gene panel at b, n ≥ 1
// samples, every base stepping 16 floats per sample. It takes the
// negative bound as mneg = −neg.
//
//go:noescape
func kernel6x16AVX(a0, a1, a2, a3, a4, a5, b *float32, n int, pos, mneg float32) (lo, hi uint64)

// rankCountAVX is ranker.rankCount's AVX2 kernel: for each of the n values
// at x (n a positive multiple of 4), out[i] = lt + (eq+1)/2, where lt
// counts the values below x[i] and eq those equal to it.
//
//go:noescape
func rankCountAVX(x, out *float64, n int)
