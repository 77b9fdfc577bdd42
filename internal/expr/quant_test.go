package expr

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// quantDots is the reference D′ of a 6×32 int8 block: row i against gene
// c of the two panels at q and q + 64·nq, Σ (u8(panel) ^ 0x80)·s8(row).
func quantDots(p []byte, rows *[blockRows]int, q, nq int) (d [blockRows][2 * panelGenes]int32) {
	for i, off := range rows {
		for c := range 2 * panelGenes {
			base := q + quadBytes*nq*(c/panelGenes) + quadSamples*(c%panelGenes)
			for j := range nq {
				for t := range quadSamples {
					d[i][c] += int32(p[base+quadBytes*j+t]^0x80) * int32(int8(p[off+quadBytes*j+t]))
				}
			}
		}
	}
	return d
}

// wantQuantMask is the mask contract over reference dots.
func wantQuantMask(d *[blockRows][2 * panelGenes]int32, b *quantBounds) (m [4]uint64) {
	for i := range d {
		for c, v := range d[i] {
			if v >= b[i] || v <= b[blockRows+i] {
				m[2*(c/panelGenes)+i/4] |= 1 << (panelGenes*(i%4) + c%panelGenes)
			}
		}
	}
	return m
}

// int8Masks runs kernel6x32Int8 at the given level.
func int8Masks(level isa, p []byte, rows *[blockRows]int, q, nq int, b *quantBounds) [4]uint64 {
	defer func(saved isa) { kernelISA = saved }(kernelISA)
	kernelISA = level
	var m [4]uint64
	m[0], m[1], m[2], m[3] = kernel6x32Int8(p, rows, q, nq, b)
	return m
}

// requireInt8Kernels fails unless the portable int8 kernel's masks equal
// the mask contract over the reference dots, and, on a VNNI machine, the
// VNNI kernel's masks equal the portable kernel's bit for bit.
func requireInt8Kernels(t *testing.T, p []byte, rows *[blockRows]int, q, nq int, b *quantBounds, what string) {
	t.Helper()
	d := quantDots(p, rows, q, nq)
	want := wantQuantMask(&d, b)
	if got := int8Masks(isaGeneric, p, rows, q, nq, b); got != want {
		t.Fatalf("%s: portable masks %016x, reference %016x", what, got, want)
	}
	if kernelISA >= isaVNNI {
		if got := int8Masks(isaVNNI, p, rows, q, nq, b); got != want {
			t.Fatalf("%s: VNNI masks %016x, portable %016x", what, got, want)
		}
	}
}

// TestKernelVNNIMatchesPortable pins the VNNI kernel to the portable int8
// kernel, and that one to the reference D′, mask for mask: nq = 1..48,
// arenas of uniformly random bytes (every byte value, −128 included), row
// blocks inside a panel, straddling two and repeating the last gene, the
// panel pairs at genes 0 and 16 (whose second panel is the spare), and
// bounds that are random, out of reach (±2³¹), or equal to an exact D′ of
// the block, so that ≥ and ≤ are tested at equality.
func TestKernelVNNIMatchesPortable(t *testing.T) {
	if kernelISA < isaVNNI {
		t.Skip("no AVX-512 VNNI on this machine: only the portable int8 kernel is checked")
	}
	const genes = 40 // panels 0-2 (genes 40-47 pad the last) and the spare
	rng := rand.New(rand.NewSource(21))
	for nq := 1; nq <= 48; nq++ {
		p := make([]byte, 4*quadBytes*nq)
		rng.Read(p)
		for _, g1 := range []int{0, 12, 36} {
			var rows [blockRows]int
			for i := range rows {
				rows[i] = offset8(min(g1+i, genes-1), nq)
			}
			for _, q := range []int{0, panelGenes} {
				d := quantDots(p, &rows, offset8(q, nq), nq)
				bounds := []quantBounds{}
				for range 4 {
					var b quantBounds
					for i := range b {
						b[i] = int32(rng.Intn(1<<14) - 1<<13)
					}
					bounds = append(bounds, b)
				}
				var never, exact quantBounds
				for i := range blockRows {
					never[i], never[blockRows+i] = math.MaxInt32, math.MinInt32
					exact[i], exact[blockRows+i] = d[i][(5*i+3)%32], d[i][(7*i+11)%32]
				}
				bounds = append(bounds, never, exact)
				for k, b := range bounds {
					requireInt8Kernels(t, p, &rows, offset8(q, nq), nq, &b, fmt.Sprintf("nq=%d rows %d.. panels at %d bounds %d", nq, g1, q, k))
				}
			}
		}
	}
}

// FuzzKernelVNNIMatchesPortable pins the VNNI kernel to the portable int8
// kernel and the reference D′ over raw bytes. Byte 0 picks nq (1..64, low
// six bits) and the panel pair (top bit: genes 0-31, or 16-47 whose
// second panel is the spare), byte 1 the first row of the block, bytes
// 2-9 two bounds (little-endian int32) shared by the six rows, and the rest,
// cycled, fills the arena.
func FuzzKernelVNNIMatchesPortable(f *testing.F) {
	if kernelISA < isaVNNI {
		f.Skip("no AVX-512 VNNI on this machine: the VNNI kernel cannot run here")
	}
	f.Add([]byte{3, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0x7f, 0x81, 1, 0xff, 0x40})
	f.Add([]byte{0x80 | 17, 36, 0x10, 0, 0, 0, 0xf0, 0xff, 0xff, 0xff, 0x7f, 0x7f, 0x7f})
	f.Add([]byte{63, 0, 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0x80, 0x81, 0x81, 0x81, 0x81, 0x80})
	f.Fuzz(func(t *testing.T, data []byte) {
		const genes = 40
		if len(data) < 11 {
			return
		}
		nq := 1 + int(data[0]&63)
		q := panelGenes * int(data[0]>>7)
		vals := data[10:]
		p := make([]byte, 4*quadBytes*nq)
		for i := range p {
			p[i] = vals[i%len(vals)]
		}
		var rows [blockRows]int
		for i := range rows {
			rows[i] = offset8(min(int(data[1])%genes+i, genes-1), nq)
		}
		var b quantBounds
		for i := range blockRows {
			b[i] = int32(binary.LittleEndian.Uint32(data[2:]))
			b[blockRows+i] = int32(binary.LittleEndian.Uint32(data[6:]))
		}
		requireInt8Kernels(t, p, &rows, offset8(q, nq), nq, &b, fmt.Sprintf("nq=%d panels at %d", nq, q))
	})
}

// quantArena is an unpooled arena whose z64 holds the given rows (which
// the caller makes unit-norm), quantized by pack8.
func quantArena(t *testing.T, rows [][]float64, n int) *buildArena {
	t.Helper()
	ar := newArena(arenaKey{genes: len(rows), samples: n})
	for g, row := range rows {
		copy(ar.z64[g*n:], row)
		for _, z := range row {
			ar.maxAbs = max(ar.maxAbs, math.Abs(z))
		}
	}
	if err := ar.pack8(t.Context()); err != nil {
		t.Fatal(err)
	}
	return ar
}

// quantValue is gene g's quantized sample k.
func quantValue(ar *buildArena, g, k int) int64 {
	nq := quads(ar.shape.samples)
	return int64(int8(ar.p8[offset8(g, nq)+quadBytes*(k/quadSamples)+k%quadSamples]))
}

// unitRow scales x to unit norm.
func unitRow(x []float64) []float64 {
	inv := 1 / math.Sqrt(dot(x, x))
	for i := range x {
		x[i] *= inv
	}
	return x
}

// TestQuantBandSound checks |s²·D − r| ≤ quantBand(n, s) for every pair
// of unit-norm rows, self pairs included, where D is the integer dot of
// the rows pack8 wrote and r the canonical dot, for n = 1..131 and 2048,
// over three row sets:
//   - worst-case rows: every magnitude just past a half step of the grid
//     (one sample at 127 steps sets the scale), so every rounding error is
//     nearly ½ and points away from zero, with partners that copy or
//     negate a row (errors aligned with the partner's signs), and a
//     partner with permuted magnitudes;
//   - the same rows plus a spike row (1 − ε at one sample) that drives
//     max|z| toward 1 and the grid to its coarsest;
//   - standardized normal rows.
//
// The first set comes within a few percent of the band, so a band half as
// wide, or one without its √n term, fails here.
func TestQuantBandSound(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	widths := []int{2048}
	for n := 1; n <= 131; n++ {
		widths = append(widths, n)
	}
	worst := 0.0
	for _, n := range widths {
		base := make([]float64, n)
		for k := range base {
			base[k] = float64(rng.Intn(127)) + 0.5 + 1e-6
			if rng.Intn(2) == 0 {
				base[k] = -base[k]
			}
		}
		base[rng.Intn(n)] = 127
		copyRow := func(sign float64, perm bool) []float64 {
			out := make([]float64, n)
			for k, v := range base {
				out[k] = sign * v
			}
			if perm && n > 1 {
				i, j := rng.Intn(n), rng.Intn(n)
				out[i], out[j] = out[j], out[i]
			}
			return unitRow(out)
		}
		halfSteps := [][]float64{copyRow(1, false), copyRow(-1, false), copyRow(1, true), copyRow(-1, true)}
		spike := make([]float64, n)
		for k := range spike {
			spike[k] = 1e-3 * rng.NormFloat64()
		}
		spike[0] = 1
		normal := make([][]float64, 6)
		for g := range normal {
			normal[g] = make([]float64, n)
			for k := range normal[g] {
				normal[g][k] = rng.NormFloat64()
			}
			normal[g] = unitRow(normal[g])
		}
		for si, set := range [][][]float64{halfSteps, append(halfSteps[:len(halfSteps):len(halfSteps)], unitRow(spike)), append(normal, unitRow(spike))} {
			ar := quantArena(t, set, n)
			s := ar.maxAbs / quantLevels
			band := quantBand(n, s)
			for a := range set {
				for b := range set {
					var d int64
					for k := range n {
						d += quantValue(ar, a, k) * quantValue(ar, b, k)
					}
					r := dot(set[a], set[b])
					err := math.Abs(s*s*float64(d) - r)
					if err > band {
						t.Fatalf("n=%d set %d pair (%d,%d): |s²·D − r| = %g > band %g", n, si, a, b, err, band)
					}
					if si == 0 && n >= 8 {
						worst = max(worst, err/band)
					}
				}
			}
		}
	}
	if worst < 0.6 {
		t.Fatalf("the worst-case rows reach only %.2f of the band: the test no longer bites", worst)
	}
}

// TestQuantRowCorrection pins the engine's per-row bounds (rowBounds) to
// their meaning: with pos and neg set to exact plain dots D = Σ q_a·q_b
// of the block, a pair's mask bit must be set iff D ≥ pos or D ≤ −neg,
// on every int8 kernel, so an error in the 128·Σq correction of D′
// changes a bit at equality.
func TestQuantRowCorrection(t *testing.T) {
	const genes, n = 40, 37
	nq := quads(n)
	rng := rand.New(rand.NewSource(31))
	rows := make([][]float64, genes)
	for g := range rows {
		rows[g] = make([]float64, n)
		for k := range rows[g] {
			rows[g][k] = rng.NormFloat64() + 0.3 // a nonzero mean, so Σq ≠ 0
		}
		rows[g] = unitRow(rows[g])
	}
	ar := quantArena(t, rows, n)
	for _, g1 := range []int{0, 12, 34} {
		var offs [blockRows]int
		for i := range offs {
			offs[i] = offset8(g1+i, nq)
		}
		for _, q := range []int{0, panelGenes} {
			var plain [blockRows][2 * panelGenes]int64
			for i := range plain {
				for c := range plain[i] {
					for k := range n {
						if q+c < genes {
							plain[i][c] += quantValue(ar, g1+i, k) * quantValue(ar, q+c, k)
						}
					}
				}
			}
			for trial := range 8 {
				pos := plain[trial%blockRows][(3*trial+1)%32]
				neg := -plain[(trial+2)%blockRows][(5*trial+7)%32]
				var b quantBounds
				for i := range blockRows {
					b[i], b[blockRows+i] = rowBounds(pos, neg, ar.rowSum[g1+i])
				}
				var want [4]uint64
				for i := range plain {
					for c, d := range plain[i] {
						if d >= pos || d <= -neg {
							want[2*(c/panelGenes)+i/4] |= 1 << (panelGenes*(i%4) + c%panelGenes)
						}
					}
				}
				levels := []isa{isaGeneric}
				if kernelISA >= isaVNNI {
					levels = append(levels, isaVNNI)
				}
				for _, level := range levels {
					if got := int8Masks(level, ar.p8, &offs, offset8(q, nq), nq, &b); got != want {
						t.Fatalf("rows %d.. panels at %d trial %d level %d: masks %016x, want %016x", g1, q, trial, level, got, want)
					}
				}
			}
		}
	}
}
