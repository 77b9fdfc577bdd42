package graph

// RadixSort sorts keys ascending and applies the same permutation to vals,
// which is nil or as long as keys. It is a stable LSD radix sort over 8-bit
// digits: equal keys keep their input order, so vals break ties. A digit
// on which every key agrees is skipped, so keys built from small vertex
// ids cost a few passes.
func RadixSort(keys []uint64, vals []int32) {
	n := len(keys)
	if n < 2 {
		return
	}
	var diff uint64 // the bits on which some key differs from keys[0]
	for _, k := range keys[1:] {
		diff |= k ^ keys[0]
	}
	if diff == 0 {
		return
	}
	src, srcV := keys, vals
	dst, dstV := make([]uint64, n), []int32(nil)
	if vals != nil {
		dstV = make([]int32, n)
	}
	for shift := 0; shift < 64; shift += 8 {
		if byte(diff>>shift) == 0 {
			continue
		}
		var start [256]int
		for _, k := range src {
			start[byte(k>>shift)]++
		}
		sum := 0
		for i, c := range start {
			start[i] = sum
			sum += c
		}
		for i, k := range src {
			j := start[byte(k>>shift)]
			start[byte(k>>shift)]++
			dst[j] = k
			if vals != nil {
				dstV[j] = srcV[i]
			}
		}
		src, dst, srcV, dstV = dst, src, dstV, srcV
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
		copy(vals, srcV)
	}
}

// SortEdges sorts edges by (U, V), the order of CompareEdges, in linear
// time: each edge is packed into the key U<<32|V and the keys are radix
// sorted. Endpoints are vertex ids, so non-negative.
func SortEdges(edges []Edge) {
	if len(edges) < 2 {
		return
	}
	keys := make([]uint64, len(edges))
	for i, e := range edges {
		keys[i] = uint64(e.U)<<32 | uint64(e.V)
	}
	RadixSort(keys, nil)
	for i, k := range keys {
		edges[i] = Edge{U: int32(k >> 32), V: int32(uint32(k))}
	}
}
