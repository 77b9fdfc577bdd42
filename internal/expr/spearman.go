package expr

import (
	"cmp"
	"math"
	"slices"
)

// Spearman returns the Spearman rank correlation coefficient of x and y —
// the Pearson correlation of their (average-tied) ranks. Rank correlation is
// the standard robust alternative for microarray data with outliers or
// non-linear monotone relationships. Returns 0 on length mismatch, fewer
// than two samples, or zero rank variance.
func Spearman(x, y []float64) float64 {
	if len(x) != len(y) || len(x) < 2 {
		return 0
	}
	return Pearson(rankVector(x), rankVector(y))
}

// rankVector assigns 1-based average ranks with tie handling.
func rankVector(x []float64) []float64 {
	out := make([]float64, len(x))
	var rk ranker
	rk.rankInto(out, x)
	return out
}

// ranker computes average-tied ranks into caller-provided storage, reusing
// its scratch across calls so per-row rank transforms (the Spearman
// standardization pass) stay allocation-cheap. Not safe for concurrent use.
//
// A NaN-free row of at most rankCountMax values is ranked by the AVX2
// compare-and-count kernel when the CPU has it (rankCount); every other row
// by sorting (value, index) pairs (rankSort), which is also the count
// path's test oracle. Both give the same ranks bit for bit.
type ranker struct {
	pairs []rankPair
	// buf holds the count kernel's padded row, then its padded ranks.
	buf []float64
}

// rankCountMax is the longest row the count kernel ranks. Its n² compares
// beat the pair sort's mispredicted n log n branches below this length and
// tie with them at it on a 2-vCPU Xeon (BenchmarkRankRows on normal rows:
// 43 against 60 µs at n = 512, 97 against 94 µs at 768, 168 against
// 135 µs at 1024).
const rankCountMax = 768

type rankPair struct {
	v float64
	i int
}

// compareRankPairs orders by value, NaN after every number, and breaks
// ties by index. The order is total, so the ranks do not depend on the
// sort algorithm.
func compareRankPairs(p, q rankPair) int {
	switch {
	case p.v < q.v:
		return -1
	case p.v > q.v:
		return 1
	}
	if pn, qn := p.v != p.v, q.v != q.v; pn != qn {
		if pn {
			return 1
		}
		return -1
	}
	return cmp.Compare(p.i, q.i)
}

// rankInto writes the 1-based average-tied ranks of x into dst. len(dst)
// must equal len(x); dst may alias x. Equal values (−0 and +0 included)
// share the average of their ranks. NaN values rank after every number,
// each in its own group, in index order.
func (rk *ranker) rankInto(dst []float64, x []float64) {
	if kernelISA >= isaAVX2 && len(x) <= rankCountMax && rk.rankCount(dst, x) {
		return
	}
	rk.rankSort(dst, x)
}

// rankCount is rankInto by counting: the value at sorted positions
// lt..lt+eq−1 of its tie group, with lt values below it and eq equal to it
// (itself included), has rank lt + (eq+1)/2, which equals rankSort's
// (i+j)/2 + 1 for i = lt, j = lt+eq−1 exactly. The kernel compares the row,
// padded to a multiple of 4 with NaN, against itself, and the padding
// counts nothing: NaN is neither below nor equal to any value. A NaN in x
// would count nothing either, not even itself, so rankCount leaves such a
// row to rankSort and reports false. It needs the AVX2 kernel.
func (rk *ranker) rankCount(dst []float64, x []float64) bool {
	n := len(x)
	if n == 0 {
		return true
	}
	n4 := (n + 3) &^ 3
	if cap(rk.buf) < 2*n4 {
		rk.buf = make([]float64, 2*n4)
	}
	row, ranks := rk.buf[:n4], rk.buf[n4:2*n4]
	for i, v := range x {
		if v != v {
			return false
		}
		row[i] = v
	}
	for i := n; i < n4; i++ {
		row[i] = math.NaN()
	}
	rankCountAVX(&row[0], &ranks[0], n4)
	copy(dst, ranks[:n])
	return true
}

// rankSort is rankInto by sorting (value, index) pairs.
func (rk *ranker) rankSort(dst []float64, x []float64) {
	n := len(x)
	if cap(rk.pairs) < n {
		rk.pairs = make([]rankPair, n)
	}
	ps := rk.pairs[:n]
	for i, v := range x {
		ps[i] = rankPair{v: v, i: i}
	}
	slices.SortFunc(ps, compareRankPairs)
	for i := 0; i < n; {
		j := i
		for j+1 < n && ps[j+1].v == ps[i].v {
			j++
		}
		avg := float64(i+j)/2 + 1
		for k := i; k <= j; k++ {
			dst[ps[k].i] = avg
		}
		i = j + 1
	}
}

// CorrelationKind selects the correlation statistic for network building.
type CorrelationKind int

const (
	// PearsonCorr uses Pearson's product-moment correlation (the paper's
	// choice).
	PearsonCorr CorrelationKind = iota
	// SpearmanCorr uses Spearman rank correlation.
	SpearmanCorr
)

// String names the correlation statistic.
func (k CorrelationKind) String() string {
	if k == SpearmanCorr {
		return "spearman"
	}
	return "pearson"
}
