//go:build !amd64

package expr

// Non-amd64 builds always use the portable block kernel; the stubs below
// exist only to satisfy the dispatch site and are unreachable while
// useAVXKernels is false.

var useAVXKernels = false

func x86HasAVX2FMA() bool { return false }

func kernel6x16AVX(a0, a1, a2, a3, a4, a5, b *float32, n int, pos, mneg float32) (lo, hi uint64) {
	panic("expr: kernel6x16AVX unavailable on this architecture")
}
