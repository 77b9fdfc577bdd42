package expr

import (
	"cmp"
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
// its (value, index) scratch across calls so per-row rank transforms (the
// Spearman standardization pass) stay allocation-cheap. Not safe for
// concurrent use.
type ranker struct {
	pairs []rankPair
}

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
