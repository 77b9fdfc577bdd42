package expr

import (
	"context"
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
//   - The float32 copy is panel-major (p32) with zero genes padding the
//     last panel, and fill rewrites every padding gene on every checkout,
//     so a recycled arena's stale contents never reach the kernel.

type arenaKey struct{ genes, samples int }

// buildArena is one sweep's row storage. z64 holds the canonical float64
// standardized rows (the admission oracle), row-major at stride samples;
// p32 holds the same values rounded to float32 (the prefilter's input) in
// the kernel's panel-major layout: panel p is genes 16p..16p+15, k-major,
// so gene g's sample k is p32[offset32(g) + 16k]. The last panel is
// padded with zero genes.
type buildArena struct {
	pool  *sync.Pool
	shape arenaKey
	z64   []float64
	p32   []float32
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

// fill standardizes m's rows into z64 (standardizeInto) and packs them
// into p32.
func (a *buildArena) fill(ctx context.Context, m *Matrix, kind CorrelationKind) error {
	if err := standardizeInto(ctx, a.z64, m, kind); err != nil {
		return err
	}
	return a.pack32(ctx)
}

// pack32 transposes the rows of z64, rounded to float32, into the panels
// of p32 and zeroes the padding genes of the last panel. It polls ctx
// every 256 genes: on the 32k-gene cap it touches 2²⁵ floats, long enough
// that a cancelled run must not sit through it.
func (a *buildArena) pack32(ctx context.Context) error {
	genes, s := a.shape.genes, a.shape.samples
	padded := (genes + panelGenes - 1) / panelGenes * panelGenes
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

// newArena allocates an unpooled arena of the given shape.
func newArena(shape arenaKey) *buildArena {
	panels := (shape.genes + panelGenes - 1) / panelGenes
	return &buildArena{
		shape: shape,
		z64:   make([]float64, shape.genes*shape.samples),
		p32:   make([]float32, panels*panelGenes*shape.samples),
	}
}

// release returns the arena to its pool. The caller must not retain any
// reference into z64/p32 past this call.
func (a *buildArena) release() {
	p := a.pool
	a.pool = nil
	p.Put(a)
}
