//go:build amd64

package expr

// useAVXKernels gates the assembly block kernel on runtime CPU support:
// AVX2 and FMA instruction sets plus OS-enabled YMM state (OSXSAVE/XCR0).
// It is a variable, not a constant, so tests can force the generic path
// and differential-test the two implementations against each other.
var useAVXKernels = x86HasAVX2FMA()

// x86HasAVX2FMA reports CPU+OS support for the AVX2/FMA kernels
// (kernel_amd64.s): CPUID leaf 1 ECX bits FMA|OSXSAVE|AVX, XCR0 bits
// SSE|AVX, and CPUID leaf 7 EBX bit AVX2.
func x86HasAVX2FMA() bool

// dot3x4F32AVX is the AVX2+FMA dot3x4F32 (float32 lanes and accumulation):
// the three rows at a, a+stride, a+2·stride against the four rows at
// b..b+3·stride, stride > 0 a multiple of lanes32.
//
//go:noescape
func dot3x4F32AVX(a, b *float32, stride int, pos, neg float32, out *[12]float32) uint16
