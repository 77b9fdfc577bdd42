package graph

import "math/bits"

// Bitset is a fixed-capacity set of vertex ids backed by a flat []uint64
// word array. It is the membership structure behind the dense kernels:
// MCODE complex membership, fill-in elimination rows and dense adjacency
// rows. The zero value is an empty set of capacity 0; use NewBitset to size
// one for a vertex universe.
type Bitset []uint64

// NewBitset returns an empty bitset able to hold ids in [0, n).
func NewBitset(n int) Bitset { return make(Bitset, (n+63)>>6) }

// Set inserts i. i must be within the capacity the bitset was created with.
func (b Bitset) Set(i int32) { b[i>>6] |= 1 << (uint(i) & 63) }

// Clear removes i.
func (b Bitset) Clear(i int32) { b[i>>6] &^= 1 << (uint(i) & 63) }

// Has reports whether i is in the set.
func (b Bitset) Has(i int32) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// Count returns the number of set bits (popcount over all words).
func (b Bitset) Count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// AndCount returns |b ∩ o| by popcounting the word-wise AND without
// materializing the intersection. The shorter word array bounds the loop.
func (b Bitset) AndCount(o Bitset) int {
	if len(o) < len(b) {
		b, o = o, b
	}
	n := 0
	for i, w := range b {
		n += bits.OnesCount64(w & o[i])
	}
	return n
}

// ForEach calls fn for every member in ascending order.
func (b Bitset) ForEach(fn func(i int32)) {
	for wi, w := range b {
		base := int32(wi) << 6
		for w != 0 {
			fn(base + int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
}
