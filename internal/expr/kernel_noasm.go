//go:build !amd64

package expr

// Non-amd64 builds always use the portable block kernel; the stubs below
// exist only to satisfy the dispatch site and are unreachable while
// useAVXKernels is false.

var useAVXKernels = false

func x86HasAVX2FMA() bool { return false }

func dot3x4F32AVX(a, b *float32, stride int, pos, neg float32, out *[12]float32) uint16 {
	panic("expr: dot3x4F32AVX unavailable on this architecture")
}
