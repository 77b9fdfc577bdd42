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
//   - The float32 rows are zero-padded to the kernel's lane width
//     (rowStride), and fill rewrites every padding column on every
//     checkout, so a recycled arena's stale contents never reach the
//     kernels.

type arenaKey struct{ genes, samples int }

// buildArena is one sweep's row storage. z64 holds the canonical float64
// standardized rows (the admission oracle), unpadded at stride samples;
// z32 holds the same rows rounded to float32 (the prefilter's input) at
// stride32.
type buildArena struct {
	pool     *sync.Pool
	shape    arenaKey
	stride32 int
	z64      []float64
	z32      []float32
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

// fill standardizes m's rows into z64 (standardizeInto) and rounds them
// into z32, zeroing every padding column of z32. The conversion polls ctx
// every 256 rows: on the 32k-gene cap it touches 2²⁵ floats, long enough
// that a cancelled run must not sit through it.
func (a *buildArena) fill(ctx context.Context, m *Matrix, kind CorrelationKind) error {
	if err := standardizeInto(ctx, a.z64, m, kind); err != nil {
		return err
	}
	s := m.Samples
	for g := 0; g < m.Genes; g++ {
		if g%256 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		src := a.z64[g*s : (g+1)*s]
		dst := a.z32[g*a.stride32 : (g+1)*a.stride32]
		for i, v := range src {
			dst[i] = float32(v)
		}
		clear(dst[s:])
	}
	return nil
}

// newArena allocates an unpooled arena of the given shape.
func newArena(shape arenaKey) *buildArena {
	s32 := rowStride(shape.samples)
	return &buildArena{
		shape:    shape,
		stride32: s32,
		z64:      make([]float64, shape.genes*shape.samples),
		z32:      make([]float32, shape.genes*s32),
	}
}

// release returns the arena to its pool. The caller must not retain any
// reference into z64/z32 past this call.
func (a *buildArena) release() {
	p := a.pool
	a.pool = nil
	p.Put(a)
}
