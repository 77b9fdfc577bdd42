package graph

import "cmp"

// EdgeKey packs a normalized undirected edge into a comparable uint64.
func EdgeKey(u, v int32) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// CompareEdges orders edges by (U, V), for slices.SortFunc and friends.
func CompareEdges(a, b Edge) int {
	if c := cmp.Compare(a.U, b.U); c != 0 {
		return c
	}
	return cmp.Compare(a.V, b.V)
}

// SplitMix64 applies the SplitMix64 finalizer, the standard 64-bit mix for
// deriving independent deterministic streams from seeds and keys (used by
// the border-edge coin and the facade's per-purpose seed split).
func SplitMix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}
