package expr

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"parsample/internal/faultinject"
	"parsample/internal/graph"
)

// This file is the all-pairs correlation engine behind BuildNetworkContext
// and, through one loose sweep bucketed per rule, ThresholdSweepContext and
// BatchBuildNetworksContext (batch.go). Each sweep applies one admission
// rule: a positive and a negative threshold on the coefficient. Four
// transformations take the per-pair cost from "two-pass Pearson plus an
// incomplete-beta p-value" down to a fraction of a SIMD dot product:
//
//  1. Standardization. Every gene row is shifted to zero mean and scaled to
//     unit L2 norm once, into a pooled flat row-major float64 arena
//     (arena.go), and rounded once into a float32 copy laid out in
//     panel-major order: panels of 16 genes, k-major, the last panel padded
//     with zero genes — or, when the int8 prefilter runs (quant.go),
//     quantized once into an int8 copy of the same panels in 4-sample
//     quads. The Pearson correlation of any two genes is then
//     exactly the dot product of their standardized rows; Spearman is the
//     same dot product after replacing each row by its average-tied ranks
//     before standardizing. A row is ranked by the AVX2 compare-and-count
//     kernel where it can be, and by sorting otherwise (spearman.go).
//  2. Threshold inversion. PValue(r, n) is monotone non-increasing in |r|,
//     so the per-build pair test "p ≤ MaxP" is equivalent to "|r| ≥ r*"
//     where r* is the smallest |r| whose p-value clears MaxP. r* is found
//     once by bisection to adjacent float64s (criticalR); the continued
//     fraction betacf never runs inside the pair loop.
//  3. Tiling. The triangular pair sweep is blocked into square row tiles,
//     a multiple of 48 rows tall (whole 6-row blocks and whole 16-gene
//     panels; 96 with the AVX-512 kernel, whole panel pairs) and sized so
//     two tiles of float32 panels sit in L1/L2.
//     Workers claim tile pairs from an atomic counter, so load balancing
//     is dynamic (the triangle makes static striding uneven) and each
//     claimed tile's panels stay hot across its inner loop.
//  4. Outer-product micro-kernel with in-register candidate masks. Inside a
//     tile pair, six rows are correlated against two adjacent 16-gene
//     panels per AVX-512F kernel call, or one panel per call of the AVX2+FMA
//     or portable 6×16 kernel (kernel.go; CPUID picks the level); the
//     kernel compares its coefficients lane-wise against the rule's
//     threshold of each sign minus a sound error band and
//     returns a 96-bit candidate mask per panel. Only the set
//     bits the tile pair owns (blockKeep: above the diagonal, inside the
//     ragged last tile) are decided by the canonical scalar dot over the
//     float64 arena, so the admitted edge set and every reported
//     coefficient are bit-identical whatever the kernel ISA.
//
// The engine applies the naive per-pair admission rule exactly (see
// TestBuildNetworkMatchesReference); only the arithmetic order inside one
// canonical correlation differs, at ulp scale, so the edge set can deviate
// solely for a pair whose coefficient lands within an ulp of the threshold.

// ScoredEdge is a retained gene pair with its correlation coefficient.
type ScoredEdge struct {
	U, V int32 // gene ids, U < V
	R    float64
}

// rule is one admission rule with its p-value cut folded in: a pair with
// canonical coefficient r is admitted iff r ≥ pos || −r ≥ neg. neg is +Inf
// without a sign gate, and a NaN coefficient clears neither side.
type rule struct{ pos, neg float64 }

func (ru rule) admits(r float64) bool { return r >= ru.pos || -r >= ru.neg }

// rule folds sp's p-value ceiling into a critical |r| (criticalR) so the
// pair loop is pure comparisons; a negative MinAbsR counts as 0.
func (sp SweepSpec) rule(samples int) rule {
	th := max(sp.MinAbsR, 0, criticalR(sp.MaxP, samples))
	if sp.Negative {
		return rule{pos: th, neg: th}
	}
	return rule{pos: th, neg: math.Inf(1)}
}

// rule is o's admission rule, default sentinels resolved.
func (o NetworkOptions) rule(samples int) rule {
	o = o.withDefaults()
	return SweepSpec{MinAbsR: o.MinAbsR, MaxP: o.MaxP, Negative: o.Negative}.rule(samples)
}

// scoredPairsContext sweeps m under opts' admission rule and returns the
// admitted pairs, U < V, in unspecified order: its callers canonicalize
// anyway (graph.Builder counting-sorts). The pair set and every
// coefficient are independent of Workers.
func scoredPairsContext(ctx context.Context, m *Matrix, opts NetworkOptions) ([]ScoredEdge, error) {
	return sweepMatrix(ctx, m, opts, opts.rule(m.Samples))
}

// sweepMatrix runs ONE standardize+sweep pass over m under ru, with opts'
// statistic and worker count (its thresholds and Precision are ignored).
// Workers poll ctx at every tile-pair claim (a claim is ~ms of dot
// products, so cancellation lands promptly) and row standardization polls
// between rows. On cancellation the partial result is discarded and
// ctx.Err() returned.
func sweepMatrix(ctx context.Context, m *Matrix, opts NetworkOptions, ru rule) ([]ScoredEdge, error) {
	ar := arenaFor(m.Genes, m.Samples)
	defer ar.release()
	if err := ar.fill(ctx, m, opts.Kind); err != nil {
		return nil, err
	}
	e, err := newEngine(ctx, ar, ru)
	if err != nil {
		return nil, err
	}
	return e.sweep(ctx, opts.Workers)
}

// newEngine sets up the sweep of a filled arena under ru: it picks the
// prefilter (setCandidateBounds) and packs the arena copy that prefilter
// reads, and no other. On cancellation it returns ctx.Err().
func newEngine(ctx context.Context, ar *buildArena, ru rule) (*engine, error) {
	samples := ar.shape.samples
	e := &engine{
		genes:   ar.shape.genes,
		samples: samples,
		z64:     ar.z64,
		tile:    tileRows(samples),
		rule:    ru,
	}
	e.setCandidateBounds(ar.maxAbs)
	var err error
	switch {
	case e.dense:
	case e.quant:
		err = ar.pack8(ctx)
		e.p8, e.rowSum = ar.p8, ar.rowSum
	default:
		err = ar.pack32(ctx)
		e.p32 = ar.p32
	}
	if err != nil {
		return nil, err
	}
	return e, nil
}

// engine is one all-pairs sweep over a standardized row arena.
type engine struct {
	genes, samples int
	z64            []float64 // genes×samples, zero-mean unit-norm rows (admission oracle)
	p32            []float32 // the same rows in float32, panel-major (prefilter; arena.go)
	p8             []byte    // or quantized to int8 in quads (int8 prefilter; quant.go)
	rowSum         []int32   // each gene's sum of int8 values
	tile           int       // rows per tile
	rule           rule
	posCand        float64 // block r ≥ posCand makes a pair a candidate
	negCand        float64 // block r ≤ -negCand does too (+Inf: no sign gate)
	pos32, neg32   float32 // posCand, negCand rounded down to float32
	posQ, negQ     int64   // int8 path: D ≥ posQ or D ≤ −negQ makes a candidate
	dense          bool    // a threshold sits inside its band: skip the prefilter
	quant          bool    // the int8 prefilter runs instead of the float32 one
}

// setCandidateBounds derives the block-kernel prefilter bounds: the rule's
// two thresholds, each widened by the float32 recheck band so no
// admissible pair can be filtered out. When a widened bound reaches zero
// the prefilter admits (almost) everything and would only double the
// work, so the sweep falls back to the dense canonical path — exactly the
// pre-blocking engine. The kernel compares against the bounds rounded
// down to float32, which can only nominate more pairs.
//
// On VNNI machines the int8 prefilter replaces the float32 one when the
// rows fit its integer range (n ≤ quantMaxSamples, max|z| = maxAbs > 0)
// and both thresholds minus the wider int8 band stay selective; posQ and
// negQ are then its integer bounds (quant.go).
func (e *engine) setCandidateBounds(maxAbs float64) {
	band := recheckBand32(e.samples)
	pos, neg := e.rule.pos, e.rule.neg
	e.posCand = pos - band
	e.negCand = neg - band
	e.pos32 = roundDown32(e.posCand)
	e.neg32 = roundDown32(e.negCand)
	e.dense = e.posCand <= 0 || e.negCand <= 0
	if e.dense || kernelISA < isaVNNI && !int8Portable || e.samples > quantMaxSamples || !(maxAbs > 0) {
		return
	}
	s := maxAbs / quantLevels
	band8 := quantBand(e.samples, s)
	if !quantSelective(pos, neg, band8, e.samples) {
		return
	}
	e.quant = true
	e.posQ = quantBound(pos, band8, s*s)
	e.negQ = quantBound(neg, band8, s*s)
}

// standardizeInto builds the flat arena of standardized expression rows:
// row g occupies z[g*samples:(g+1)*samples], has zero mean and unit L2
// norm, so dot(row u, row v) is the Pearson correlation of genes u and v.
// For SpearmanCorr each row is first replaced by its average-tied ranks.
// Zero-variance rows become all-zero and therefore correlate to 0 with
// everything, matching Pearson's and Spearman's degenerate-input behavior.
// It returns the largest |z| written, ignoring NaN (the int8 grid's
// scale; a row with a NaN sample is NaN throughout). ctx is polled
// roughly every 256Ki written elements, so the interval tracks row cost
// instead of row count.
func standardizeInto(ctx context.Context, z []float64, m *Matrix, kind CorrelationKind) (float64, error) {
	s := m.Samples
	pollEvery := 1 + (1<<18)/(s+1)
	var rk ranker
	var maxAbs float64
	for g := 0; g < m.Genes; g++ {
		if g%pollEvery == 0 && ctx.Err() != nil {
			return 0, ctx.Err()
		}
		src := m.Row(g)
		dst := z[g*s : (g+1)*s]
		if kind == SpearmanCorr {
			rk.rankInto(dst, src)
			src = dst
		}
		var sum float64
		for _, v := range src {
			sum += v
		}
		mean := sum / float64(s)
		var ss, maxDev float64
		for i, v := range src {
			d := v - mean
			dst[i] = d
			ss += d * d
			if a := math.Abs(d); a > maxDev {
				maxDev = a
			}
		}
		if ss == 0 {
			// ss is a sum of squares, so ss == 0 forces every deviation
			// written above to be exactly v - v = +0.0: the row is already
			// all-zero and needs no second pass.
			continue
		}
		inv := 1 / math.Sqrt(ss)
		for i := range dst {
			dst[i] *= inv
		}
		// Rounding is monotone, so the largest |dst[i]| is exactly
		// maxDev·inv; NaN fails the compare.
		if a := maxDev * inv; a > maxAbs {
			maxAbs = a
		}
	}
	return maxAbs, nil
}

// standardizedRows is standardizeInto over a freshly allocated arena, for
// tests and one-shot callers; the engine itself pools arenas (arena.go).
func standardizedRows(ctx context.Context, m *Matrix, kind CorrelationKind) ([]float64, error) {
	z := make([]float64, m.Genes*m.Samples)
	if _, err := standardizeInto(ctx, z, m, kind); err != nil {
		return nil, err
	}
	return z, nil
}

// tileBlock is the tile-height quantum: whole 6-row kernel blocks and whole
// 16-gene panels, lcm(blockRows, panelGenes).
const tileBlock = 48

// tileRows picks the tile height so that one tile of float32 panels is
// about 32 KiB — two tiles (the working set of a tile pair) then fit
// comfortably in L1d+L2 and every panel loaded for a block is reused
// against the whole opposing tile. The height is a multiple of tileBlock,
// so tiles start on a panel and only the final ragged tile has a partial
// row block or a partial panel. With the AVX-512 kernel, which sweeps two
// panels per call, it is a multiple of 2·tileBlock, so no full tile ends
// on an odd panel that would fall back to the AVX2 kernel.
func tileRows(samples int) int {
	const maxTile = 5 * tileBlock
	if samples <= 0 {
		// Degenerate zero-width rows (every correlation is 0, matching the
		// per-pair functions); any tile height works.
		return maxTile
	}
	quantum := tileBlock
	if kernelISA >= isaAVX512 {
		quantum = 2 * tileBlock
	}
	const tileBytes = 32 << 10
	t := min(tileBytes/(samples*4), maxTile)
	t -= t % quantum
	return max(t, quantum)
}

// sweep runs the blocked triangular pair sweep with the given worker count
// and returns the admitted edges in unspecified order. Workers poll ctx at
// every tile-pair claim; a cancelled sweep joins its workers and returns
// ctx.Err().
func (e *engine) sweep(ctx context.Context, workers int) ([]ScoredEdge, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	tiles := (e.genes + e.tile - 1) / e.tile
	totalPairs := int64(tiles) * int64(tiles+1) / 2
	if totalPairs == 0 {
		return nil, ctx.Err()
	}
	if int64(workers) > totalPairs {
		workers = int(totalPairs)
	}
	cols := make([]*collector, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	var errOnce sync.Once
	var werr error
	fail := func(err error) { errOnce.Do(func() { werr = err }) }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Panic containment: a worker panic (a kernel bug, or an armed
			// expr.sweep.tile panic failpoint) becomes the sweep's error
			// instead of killing the process — these goroutines are not
			// under any net/http recover, so an uncontained panic here
			// would take a shared daemon down.
			defer func() {
				if r := recover(); r != nil {
					fail(fmt.Errorf("expr: sweep worker panicked: %v", r))
				}
			}()
			c := &collector{e: e}
			cols[w] = c
			for ctx.Err() == nil {
				k := next.Add(1) - 1
				if k >= totalPairs {
					break
				}
				// Failpoint: every tile claim (delay mode models slow
				// hardware under load tests; error mode aborts the sweep).
				if err := faultinject.Eval("expr.sweep.tile"); err != nil {
					fail(err)
					break
				}
				ti, tj := decodeTilePair(k, tiles)
				e.sweepBlock(ti, tj, c)
			}
		}(w)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if werr != nil {
		return nil, werr
	}
	total := 0
	for _, c := range cols {
		total += len(c.out)
	}
	merged := make([]ScoredEdge, 0, total)
	for _, c := range cols {
		merged = append(merged, c.out...)
	}
	return merged, nil
}

// decodeTilePair maps a linear index k in [0, T(T+1)/2) to the k-th tile
// pair (i, j), i ≤ j, enumerated row-major over the upper triangle:
// (0,0)..(0,T-1), (1,1)..(1,T-1), ... The closed form inverts the prefix
// count c(i) = i·T − i(i−1)/2; the correction loop absorbs float rounding.
func decodeTilePair(k int64, tiles int) (int, int) {
	tf := float64(tiles)
	i := int((2*tf + 1 - math.Sqrt((2*tf+1)*(2*tf+1)-8*float64(k))) / 2)
	if i < 0 {
		i = 0
	}
	rowStart := func(i int) int64 { return int64(i)*int64(tiles) - int64(i)*int64(i-1)/2 }
	for i > 0 && rowStart(i) > k {
		i--
	}
	for i+1 < tiles && rowStart(i+1) <= k {
		i++
	}
	j := i + int(k-rowStart(i))
	return i, j
}

// collector accumulates one worker's admitted edges. The output slice is
// grown ahead of a tile pair using the admit rate observed over the tiles
// already swept, so dense tiles stop re-growing the slice append by
// append.
type collector struct {
	e     *engine
	out   []ScoredEdge
	pairs int64 // pairs examined so far
}

// beginBlock reserves capacity for a tile pair of the given pair count
// from the running admit rate (with 25% headroom). The first tile has no
// rate yet and grows organically.
func (c *collector) beginBlock(pairs int64) {
	if c.pairs == 0 {
		return
	}
	if est := int(float64(len(c.out)) / float64(c.pairs) * float64(pairs)); est > 0 {
		c.out = slices.Grow(c.out, est+est/4+1)
	}
}

// admit decides pair (g1, g2) with the canonical float64 dot kernel —
// whatever block kernel nominated it — and appends it if the engine's
// rule admits it. This single admission point is what keeps edge sets and
// coefficients bit-identical across ISAs.
func (c *collector) admit(g1, g2 int) {
	e := c.e
	s := e.samples
	r := dot(e.z64[g1*s:(g1+1)*s], e.z64[g2*s:(g2+1)*s])
	if e.rule.admits(r) {
		c.out = append(c.out, ScoredEdge{U: int32(g1), V: int32(g2), R: r})
	}
}

// sweepBlock computes all pairs between tile ti and tile tj (the triangle
// above the diagonal when ti == tj) through the 6×16 kernel sweep, or
// the dense canonical path when the prefilter cannot reject anything.
func (e *engine) sweepBlock(ti, tj int, c *collector) {
	lo1, hi1 := e.tileSpan(ti)
	lo2, hi2 := e.tileSpan(tj)
	var pairs int64
	if ti == tj {
		n := int64(hi1 - lo1)
		pairs = n * (n - 1) / 2
	} else {
		pairs = int64(hi1-lo1) * int64(hi2-lo2)
	}
	c.beginBlock(pairs)
	switch {
	case e.dense:
		e.sweepBlockDense(lo1, hi1, lo2, hi2, ti == tj, c)
	case e.quant:
		e.sweepBlockInt8(lo1, hi1, lo2, hi2, ti == tj, c)
	default:
		e.sweepBlockTiled(lo1, hi1, lo2, hi2, ti == tj, c)
	}
	c.pairs += pairs
}

// sweepBlockTiled walks the tile pair in 6-row blocks against pairs of
// 16-gene panels through the float32 kernels (kernel6x32, and kernel6x16
// for an odd last panel) and admits canonically only the owned pairs whose
// bit is set in a returned candidate mask. On a diagonal tile (diag,
// lo1 == lo2) a row block's partners start at the panel holding its first
// row's successor. In the ragged last tile a partial row block repeats its
// last row; blockKeep drops the repeats with the pairs on or below the
// diagonal, and the padding genes of the last panel.
func (e *engine) sweepBlockTiled(lo1, hi1, lo2, hi2 int, diag bool, c *collector) {
	n := e.samples
	var rows [blockRows]int
	for g1 := lo1; g1 < hi1; g1 += blockRows {
		for i := range rows {
			rows[i] = offset32(min(g1+i, hi1-1), n)
		}
		q := lo2
		if diag {
			q = (g1 + 1) / panelGenes * panelGenes
		}
		for ; q+panelGenes < hi2; q += 2 * panelGenes {
			alo, ahi, blo, bhi := kernel6x32(e.p32, &rows, q*n, n, e.pos32, e.neg32)
			c.admitMask(g1, q, hi2, diag, alo, ahi)
			c.admitMask(g1, q+panelGenes, hi2, diag, blo, bhi)
		}
		if q < hi2 {
			lo, hi := kernel6x16(e.p32, &rows, q*n, n, e.pos32, e.neg32)
			c.admitMask(g1, q, hi2, diag, lo, hi)
		}
	}
}

// sweepBlockInt8 is sweepBlockTiled over the int8 panels, with the row
// block's bounds on D′ (rowBounds). Every call is a full 6×32
// kernel6x32Int8; when its second panel starts at or past hi2 — another
// tile's, or the spare zero panel — its mask is dropped.
func (e *engine) sweepBlockInt8(lo1, hi1, lo2, hi2 int, diag bool, c *collector) {
	nq := quads(e.samples)
	var rows [blockRows]int
	var b quantBounds
	for g1 := lo1; g1 < hi1; g1 += blockRows {
		for i := range rows {
			g := min(g1+i, hi1-1)
			rows[i] = offset8(g, nq)
			b[i], b[blockRows+i] = rowBounds(e.posQ, e.negQ, e.rowSum[g])
		}
		q := lo2
		if diag {
			q = (g1 + 1) / panelGenes * panelGenes
		}
		for ; q < hi2; q += 2 * panelGenes {
			alo, ahi, blo, bhi := kernel6x32Int8(e.p8, &rows, offset8(q, nq), nq, &b)
			c.admitMask(g1, q, hi2, diag, alo, ahi)
			if q+panelGenes < hi2 {
				c.admitMask(g1, q+panelGenes, hi2, diag, blo, bhi)
			}
		}
	}
}

// admitMask admits the owned pairs (g1+i, q+c) set in the candidate mask
// of the row block at g1 against the panel at gene q.
func (c *collector) admitMask(g1, q, hi2 int, diag bool, lo, hi uint64) {
	if lo|hi == 0 {
		return
	}
	klo, khi := blockKeep(g1, q, hi2, diag)
	maskPairs(lo&klo, hi&khi, func(i, k int) { c.admit(g1+i, q+k) })
}

// sweepBlockDense is the pre-blocking engine: canonical dot for every
// pair of rows [lo1, hi1) against partners [lo2, hi2) (above the diagonal
// when diag). Used when either threshold of the rule is within its
// recheck band of zero, where the prefilter would nominate (nearly) every
// pair and the block kernel would only add work.
func (e *engine) sweepBlockDense(lo1, hi1, lo2, hi2 int, diag bool, c *collector) {
	for g1 := lo1; g1 < hi1; g1++ {
		start := lo2
		if diag {
			start = g1 + 1
		}
		for g2 := start; g2 < hi2; g2++ {
			c.admit(g1, g2)
		}
	}
}

func (e *engine) tileSpan(t int) (lo, hi int) {
	lo = t * e.tile
	hi = lo + e.tile
	if hi > e.genes {
		hi = e.genes
	}
	return lo, hi
}

// dot is the canonical kernel: the inner product of two standardized
// float64 rows, i.e. their correlation coefficient. It alone decides
// admission and supplies reported coefficients; the block kernel
// (kernel.go) is only a banded prefilter in front of it. Eight
// accumulators hide the FP add latency; the slice re-slice lets the
// compiler elide bounds checks.
func dot(a, b []float64) float64 {
	b = b[:len(a)]
	var s0, s1, s2, s3, s4, s5, s6, s7 float64
	i := 0
	for ; i <= len(a)-8; i += 8 {
		s0 += a[i] * b[i]
		s1 += a[i+1] * b[i+1]
		s2 += a[i+2] * b[i+2]
		s3 += a[i+3] * b[i+3]
		s4 += a[i+4] * b[i+4]
		s5 += a[i+5] * b[i+5]
		s6 += a[i+6] * b[i+6]
		s7 += a[i+7] * b[i+7]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// criticalR inverts the p-value threshold once per build: it returns the
// smallest float64 r in [0, 1] with PValue(r, n) ≤ maxP, so the per-pair
// significance test reduces to |r| ≥ criticalR in the pair loop. PValue is
// monotone non-increasing in |r|, so bisection to adjacent floats finds the
// exact admission boundary; betacf never runs per pair.
//
// Degenerate cases follow PValue: for n ≤ 2 every pair has p = 1, so the
// result is 0 when maxP ≥ 1 (everything is admissible) and the unattainable
// sentinel 2 otherwise (nothing is). maxP ≤ 0 admits only |r| = 1, whose
// p-value is exactly 0.
func criticalR(maxP float64, n int) float64 {
	if n <= 2 {
		if maxP >= 1 {
			return 0
		}
		return 2
	}
	if PValue(0, n) <= maxP {
		return 0
	}
	if PValue(1, n) > maxP {
		return 2
	}
	lo, hi := 0.0, 1.0 // invariant: PValue(lo) > maxP ≥ PValue(hi)
	for {
		mid := lo + (hi-lo)/2
		if mid <= lo || mid >= hi {
			return hi
		}
		if PValue(mid, n) <= maxP {
			hi = mid
		} else {
			lo = mid
		}
	}
}

// toEdges strips the correlation coefficients for bulk staging into a
// graph.Builder.
func toEdges(scored []ScoredEdge) []graph.Edge {
	edges := make([]graph.Edge, len(scored))
	for i, se := range scored {
		edges[i] = graph.Edge{U: se.U, V: se.V}
	}
	return edges
}
