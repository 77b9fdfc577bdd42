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
//     needs re-sizing. Float64 and Float32 builds of one shape share
//     arenas: the float32 rows are allocated by the first Float32 fill
//     and stay with the arena, beside the float64 rows every build
//     rechecks against.
//   - sync.Pool's GC integration bounds the idle footprint: arenas for
//     shapes that stop arriving are collected with the next GC cycle.
//   - Rows are zero-padded to the kernel's lane width (rowStride), and
//     fill rewrites every padding column on every checkout, so a recycled
//     arena's stale contents never reach the kernels.

type arenaKey struct{ genes, samples int }

// buildArena is one sweep's row storage. z64 always holds the canonical
// float64 standardized rows (the admission oracle) at stride64; z32,
// allocated by the first Float32 fill, holds the same rows rounded to
// float32 at stride32. prec is the precision of the current checkout.
type buildArena struct {
	pool     *sync.Pool
	shape    arenaKey
	prec     Precision
	stride64 int
	stride32 int
	z64      []float64
	z32      []float32
}

var arenaPools struct {
	sync.Mutex
	m map[arenaKey]*sync.Pool
}

// arenaFor checks an arena of the given shape out of its pool for a build
// at prec, allocating one if the pool is empty. The contents are stale
// garbage until fill.
func arenaFor(genes, samples int, prec Precision) *buildArena {
	key := arenaKey{genes: genes, samples: samples}
	arenaPools.Lock()
	p := arenaPools.m[key]
	if p == nil {
		if arenaPools.m == nil {
			arenaPools.m = make(map[arenaKey]*sync.Pool)
		}
		p = &sync.Pool{New: func() any { return newArena(key, Float64) }}
		arenaPools.m[key] = p
	}
	arenaPools.Unlock()
	a := p.Get().(*buildArena)
	a.pool = p
	a.prec = prec
	return a
}

// fill standardizes m's rows into z64 (standardizeInto) and, for a
// Float32 build, rounds them into z32, zeroing every padding column of
// both. The conversion polls ctx every 256 rows: on the 32k-gene cap it
// touches 2²⁵ floats, long enough that a cancelled run must not sit
// through it.
func (a *buildArena) fill(ctx context.Context, m *Matrix, kind CorrelationKind) error {
	if err := standardizeInto(ctx, a.z64, a.stride64, m, kind); err != nil {
		return err
	}
	if a.prec != Float32 {
		return nil
	}
	if a.z32 == nil {
		a.z32 = make([]float32, a.shape.genes*a.stride32)
	}
	s := m.Samples
	for g := 0; g < m.Genes; g++ {
		if g%256 == 0 && ctx.Err() != nil {
			return ctx.Err()
		}
		src := a.z64[g*a.stride64 : g*a.stride64+s]
		dst := a.z32[g*a.stride32 : (g+1)*a.stride32]
		for i, v := range src {
			dst[i] = float32(v)
		}
		clear(dst[s:])
	}
	return nil
}

// newArena allocates an unpooled arena of the given shape for a build at
// prec.
func newArena(shape arenaKey, prec Precision) *buildArena {
	s64 := rowStride(shape.samples, lanes64)
	return &buildArena{
		shape:    shape,
		prec:     prec,
		stride64: s64,
		stride32: rowStride(shape.samples, lanes32),
		z64:      make([]float64, shape.genes*s64),
	}
}

// release returns the arena to its pool. The caller must not retain any
// reference into z64/z32 past this call.
func (a *buildArena) release() {
	p := a.pool
	a.pool = nil
	p.Put(a)
}
