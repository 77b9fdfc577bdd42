//go:build !amd64

package expr

// Non-amd64 builds always use the portable block kernel and rank by
// sorting; the stubs below exist only to satisfy the dispatch sites and are
// unreachable while kernelISA is isaGeneric.

func x86HasAVX2FMA() bool { return false }

func x86HasAVX512F() bool { return false }

func kernel6x16AVX(a0, a1, a2, a3, a4, a5, b *float32, n int, pos, mneg float32) (lo, hi uint64) {
	panic("expr: kernel6x16AVX unavailable on this architecture")
}

func kernel6x32AVX512(a0, a1, a2, a3, a4, a5, b *float32, n int, pos, mneg float32) (lo0, hi0, lo1, hi1 uint64) {
	panic("expr: kernel6x32AVX512 unavailable on this architecture")
}

func rankCountAVX(x, out *float64, n int) {
	panic("expr: rankCountAVX unavailable on this architecture")
}
