package expr

import (
	"context"
	"encoding/binary"
	"sync"
)

// Arena pooling. Every sweep standardizes rows into a flat genes×samples
// arena, and the service layer rebuilds networks over the same dataset
// shapes constantly (same matrix, different thresholds), so arenas are
// recycled through per-shape sync.Pools instead of make per call.
//
// Lifetime rules (DESIGN.md §7):
//   - An arena is owned by exactly one sweep from arenaFor to release.
//     release only runs after the sweep has joined all its workers (the
//     engine joins even on cancellation), so a pooled arena is never
//     aliased by a live goroutine.
//   - Pools are keyed by (genes, samples), so a recycled arena never
//     needs re-sizing.
//   - sync.Pool's GC integration bounds the idle footprint: arenas for
//     shapes that stop arriving are collected with the next GC cycle.
//   - The kernel's copy of the rows is packed after the engine has picked
//     its prefilter, and only that copy: the float32 panels (p32) or the
//     int8 panels (p8, with rowSum), each allocated on its first use in a
//     pooled arena. Both are panel-major with zero genes padding the last
//     panel (p8 also has a spare zero panel), and each pack rewrites every
//     padding gene, so a recycled arena's stale contents never reach the
//     kernel.

type arenaKey struct{ genes, samples int }

// buildArena is one sweep's row storage. z64 holds the canonical float64
// standardized rows (the admission oracle), row-major at stride samples,
// and maxAbs their largest magnitude. p32 holds the same values rounded
// to float32 (the float32 prefilter's input) in the kernel's panel-major
// layout: panel p is genes 16p..16p+15, k-major, so gene g's sample k is
// p32[offset32(g) + 16k]. p8 holds them quantized to int8 in 4-sample
// quads (quant.go), and rowSum each gene's sum of quantized values.
type buildArena struct {
	pool   *sync.Pool
	shape  arenaKey
	z64    []float64
	maxAbs float64
	p32    []float32
	p8     []byte
	rowSum []int32
}

var arenaPools struct {
	sync.Mutex
	m map[arenaKey]*sync.Pool
}

// arenaFor checks an arena of the given shape out of its pool, allocating
// one if the pool is empty. The contents are stale garbage until fill.
func arenaFor(genes, samples int) *buildArena {
	key := arenaKey{genes: genes, samples: samples}
	arenaPools.Lock()
	p := arenaPools.m[key]
	if p == nil {
		if arenaPools.m == nil {
			arenaPools.m = make(map[arenaKey]*sync.Pool)
		}
		p = &sync.Pool{New: func() any { return newArena(key) }}
		arenaPools.m[key] = p
	}
	arenaPools.Unlock()
	a := p.Get().(*buildArena)
	a.pool = p
	return a
}

// fill standardizes m's rows into z64 (standardizeInto) and records
// their largest magnitude. The engine packs the kernel's copy (pack32 or
// pack8) once it has picked the prefilter.
func (a *buildArena) fill(ctx context.Context, m *Matrix, kind CorrelationKind) error {
	mx, err := standardizeInto(ctx, a.z64, m, kind)
	a.maxAbs = mx
	return err
}

// pack32 transposes the rows of z64, rounded to float32, into the panels
// of p32 and zeroes the padding genes of the last panel. It polls ctx
// every 256 genes: on the 32k-gene cap it touches 2²⁵ floats, long enough
// that a cancelled run must not sit through it.
func (a *buildArena) pack32(ctx context.Context) error {
	genes, s := a.shape.genes, a.shape.samples
	padded := (genes + panelGenes - 1) / panelGenes * panelGenes
	if a.p32 == nil {
		a.p32 = make([]float32, padded*s)
	}
	for g := 0; g < padded; g++ {
		if g%256 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		var row []float64
		if g < genes {
			row = a.z64[g*s : (g+1)*s]
		}
		put32(a.p32, g, s, row)
	}
	return nil
}

// put32 writes row, rounded to float32, as gene g of the panel-major
// arena p32 of the given sample count; a nil row writes zeros.
func put32(p32 []float32, g, samples int, row []float64) {
	if samples == 0 {
		return
	}
	col := p32[offset32(g, samples):]
	if row == nil {
		for k := range samples {
			col[panelGenes*k] = 0
		}
		return
	}
	for k, v := range row {
		col[panelGenes*k] = float32(v)
	}
}

// offset32 is the p32 offset of gene g's sample 0 in an arena of the
// given sample count.
func offset32(g, samples int) int {
	return g/panelGenes*panelGenes*samples + g%panelGenes
}

// pack8 quantizes the rows of z64 onto the int8 grid of step
// s = maxAbs/127 (quant8) into the quads of p8, records each gene's sum of
// quantized values in rowSum, and zeroes the padding genes and the spare
// panel. maxAbs must be positive. It polls ctx as pack32 does.
func (a *buildArena) pack8(ctx context.Context) error {
	genes, s := a.shape.genes, a.shape.samples
	nq := quads(s)
	padded := ((genes+panelGenes-1)/panelGenes + 1) * panelGenes
	if a.p8 == nil {
		a.p8 = make([]byte, padded*quadSamples*nq)
		a.rowSum = make([]int32, genes)
	}
	inv := quantLevels / a.maxAbs
	for g := 0; g < padded; g++ {
		if g%256 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		col := a.p8[offset8(g, nq):]
		if g >= genes {
			for j := range nq {
				binary.LittleEndian.PutUint32(col[quadBytes*j:], 0)
			}
			continue
		}
		a.rowSum[g] = packRow8(col, a.z64[g*s:(g+1)*s], inv)
	}
	return nil
}

// packRow8 writes quant8 of each value of row, 4 per quad, to the quads
// at col, col + 64, ..., zero past the last value, and returns their sum.
func packRow8(col []byte, row []float64, inv float64) int32 {
	var sum int32
	j := 0
	for ; quadSamples*(j+1) <= len(row); j++ {
		x := row[quadSamples*j:][:quadSamples]
		q0, q1, q2, q3 := quant8(x[0], inv), quant8(x[1], inv), quant8(x[2], inv), quant8(x[3], inv)
		sum += q0 + q1 + q2 + q3
		binary.LittleEndian.PutUint32(col[quadBytes*j:],
			uint32(uint8(q0))|uint32(uint8(q1))<<8|uint32(uint8(q2))<<16|uint32(uint8(q3))<<24)
	}
	if quadSamples*j < len(row) {
		var w uint32
		for t, z := range row[quadSamples*j:] {
			q := quant8(z, inv)
			sum += q
			w |= uint32(uint8(q)) << (8 * t)
		}
		binary.LittleEndian.PutUint32(col[quadBytes*j:], w)
	}
	return sum
}

// newArena allocates an unpooled arena of the given shape; the kernel
// copies are allocated by their first pack.
func newArena(shape arenaKey) *buildArena {
	return &buildArena{
		shape: shape,
		z64:   make([]float64, shape.genes*shape.samples),
	}
}

// release returns the arena to its pool. The caller must not retain any
// reference into z64, p32 or p8 past this call.
func (a *buildArena) release() {
	p := a.pool
	a.pool = nil
	p.Put(a)
}
