package graph

import "math/bits"

// Bitset is a fixed-capacity set of vertex ids backed by a flat []uint64
// word array. It is the membership structure behind the dense kernels: DSW
// candidate sets, MCODE complex membership and dense adjacency rows. The
// zero value is an empty set of
// capacity 0; use NewBitset to size one for a vertex universe.
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

// Any reports whether the set is non-empty.
func (b Bitset) Any() bool {
	for _, w := range b {
		if w != 0 {
			return true
		}
	}
	return false
}

// Reset clears every bit, keeping the capacity.
func (b Bitset) Reset() {
	for i := range b {
		b[i] = 0
	}
}

// SubsetOf reports whether b ⊆ o, i.e. b \ o is empty. The word loop exits
// at the first witness, so a failing test is usually cheaper than a full
// intersection. o must have at least as many words as b's set bits require;
// bitsets created for the same universe always satisfy this.
func (b Bitset) SubsetOf(o Bitset) bool {
	for i, w := range b {
		if w&^o[i] != 0 {
			return false
		}
	}
	return true
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

// Or inserts every member of o into b. o must not be longer than b.
func (b Bitset) Or(o Bitset) {
	for i, w := range o {
		b[i] |= w
	}
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

// AppendMembers appends the members of b to dst in ascending order and
// returns the extended slice (an allocation-free alternative to ForEach for
// collecting members).
func (b Bitset) AppendMembers(dst []int32) []int32 {
	for wi, w := range b {
		base := int32(wi) << 6
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}
