// Package expr implements the microarray side of the paper's pipeline:
// expression matrices, all-pairs Pearson or Spearman correlation with
// Student-t p-values, thresholding, and correlation-network construction.
// Network building runs on a standardized-row engine (engine.go): rows are
// z-scored once so each pair costs one dot product, the p-value cut is
// inverted into a critical |r| ahead of the sweep, and cache-blocked row
// tiles are dispatched to workers from an atomic counter. Synthetic
// expression data with planted co-expressed modules substitutes for the
// GEO datasets (GSE5078, GSE5140); see DESIGN.md §1 (engine: §3).
package expr

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"parsample/internal/graph"
)

// Matrix is a genes × samples expression matrix.
type Matrix struct {
	Genes   int
	Samples int
	data    []float64 // row-major: gene g sample s at g*Samples+s
}

// NewMatrix allocates a zero matrix.
func NewMatrix(genes, samples int) *Matrix {
	return &Matrix{Genes: genes, Samples: samples, data: make([]float64, genes*samples)}
}

// At returns the expression of gene g in sample s.
func (m *Matrix) At(g, s int) float64 { return m.data[g*m.Samples+s] }

// Set assigns the expression of gene g in sample s.
func (m *Matrix) Set(g, s int, v float64) { m.data[g*m.Samples+s] = v }

// Row returns the expression profile of gene g (shared storage).
func (m *Matrix) Row(g int) []float64 { return m.data[g*m.Samples : (g+1)*m.Samples] }

// Pearson returns the Pearson correlation coefficient of x and y.
// It returns 0 when either vector has zero variance.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) || len(x) == 0 {
		return 0
	}
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// PValue returns the two-sided p-value for observing |r| under the null
// hypothesis of zero correlation with n samples, via the exact Student-t
// transform t = r·√((n−2)/(1−r²)) and the regularized incomplete beta
// function.
func PValue(r float64, n int) float64 {
	if n <= 2 {
		return 1
	}
	r2 := r * r
	if r2 >= 1 {
		return 0
	}
	df := float64(n - 2)
	t2 := r2 * df / (1 - r2)
	// Two-sided p = I_{df/(df+t²)}(df/2, 1/2).
	return regIncBeta(df/2, 0.5, df/(df+t2))
}

// regIncBeta computes the regularized incomplete beta function I_x(a, b)
// using the continued-fraction expansion (Numerical Recipes betacf).
func regIncBeta(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	lbeta := lgamma(a+b) - lgamma(a) - lgamma(b)
	front := math.Exp(lbeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betacf(a, b, x) / a
	}
	return 1 - front*betacf(b, a, 1-x)/b
}

func lgamma(x float64) float64 {
	v, _ := math.Lgamma(x)
	return v
}

func betacf(a, b, x float64) float64 {
	const maxIter = 300
	const eps = 3e-14
	const fpmin = 1e-300
	qab, qap, qam := a+b, a+1, a-1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		m2 := float64(2 * m)
		aa := float64(m) * (b - float64(m)) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + float64(m)) * (qab + float64(m)) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// Precision is accepted for compatibility and ignored: every sweep runs
// one engine, a float32 prefilter whose candidates are decided by the
// canonical float64 dot (see kernel.go and DESIGN.md §7), so the edge set
// and every coefficient are those of the per-pair float64 rule whichever
// value a caller sets.
type Precision uint8

const (
	// Float64 is the zero value; ignored like Float32.
	Float64 Precision = iota
	// Float32 selects nothing different from Float64.
	Float32
)

// NetworkOptions controls correlation-network construction.
//
// Threshold semantics: a NEGATIVE MinAbsR or MaxP selects the paper's
// default (0.95 and 0.0005 respectively); zero and positive values are
// honored literally, so MinAbsR = 0 (no correlation floor) and MaxP = 0
// (admit only |r| = 1, whose p-value is exactly zero) are both
// requestable. The zero value NetworkOptions{} therefore asks for the
// most permissive correlation floor combined with the most stringent
// p-value cut; callers wanting the paper's thresholds should start from
// DefaultNetworkOptions().
type NetworkOptions struct {
	Kind      CorrelationKind // correlation statistic (default PearsonCorr)
	MinAbsR   float64         // minimum |correlation|; negative → 0.95
	MaxP      float64         // maximum p-value; negative → 0.0005
	Workers   int             // parallel workers; ≤ 0 → GOMAXPROCS
	Negative  bool            // if true, strong negative correlations also make edges
	Precision Precision       // ignored; kept so existing callers compile
}

// DefaultNetworkOptions returns the paper's configuration: Pearson
// correlation, 0.95 ≤ |ρ| ≤ 1.00, p ≤ 0.0005, all cores.
func DefaultNetworkOptions() NetworkOptions {
	return NetworkOptions{Kind: PearsonCorr, MinAbsR: 0.95, MaxP: 0.0005}
}

// withDefaults resolves the negative-means-default sentinels.
func (o NetworkOptions) withDefaults() NetworkOptions {
	if o.MinAbsR < 0 {
		o.MinAbsR = 0.95
	}
	if o.MaxP < 0 {
		o.MaxP = 0.0005
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o
}

// BuildNetwork computes all-pairs correlations of the expression matrix and
// returns the thresholded correlation network. The work runs on the
// standardized-row engine (see engine.go): rows are z-scored once, each
// pair costs one dot product, the p-value threshold is inverted into a
// critical |r| ahead of the sweep, and cache-blocked row tiles are
// dispatched to workers from an atomic counter. The admission rule is the
// per-pair test (Pearson or Spearman, then PValue against the thresholds)
// exactly; only the floating-point evaluation order of each coefficient
// differs, so admission can deviate solely for a pair whose correlation
// sits within an ulp of the threshold. The result does not depend on Workers.
func BuildNetwork(m *Matrix, opts NetworkOptions) *graph.Graph {
	g, _ := BuildNetworkContext(context.Background(), m, opts)
	return g
}

// BuildNetworkContext is BuildNetwork with cooperative cancellation: the
// engine's standardization and tile sweep poll ctx (see engine.go) and the
// build returns (nil, ctx.Err()) promptly once cancellation is observed.
// The edge set of a completed build is identical to BuildNetwork's.
func BuildNetworkContext(ctx context.Context, m *Matrix, opts NetworkOptions) (*graph.Graph, error) {
	scored, err := scoredPairsContext(ctx, m, opts)
	if err != nil {
		return nil, err
	}
	b := graph.NewBuilder(m.Genes)
	b.AddEdges(toEdges(scored))
	return b.Build(), nil
}

// SyntheticSpec describes a synthetic microarray experiment with planted
// co-expressed modules: module genes follow a shared latent profile with
// small independent noise; background genes are independent.
type SyntheticSpec struct {
	Genes      int
	Samples    int
	Modules    int
	ModuleSize int
	Noise      float64 // within-module noise std-dev (latent signal has σ=1)
	Seed       int64
}

// SyntheticResult carries the generated matrix and the ground truth.
type SyntheticResult struct {
	M       *Matrix
	Modules [][]int32 // gene ids per planted module
}

// Synthesize generates the synthetic expression matrix.
func Synthesize(spec SyntheticSpec) (*SyntheticResult, error) {
	if spec.Genes <= 0 || spec.Samples <= 2 {
		return nil, fmt.Errorf("expr: need genes > 0 and samples > 2, got %d, %d", spec.Genes, spec.Samples)
	}
	// Divide rather than multiply: a huge module count must not overflow
	// past the bound.
	if spec.Modules < 0 || spec.ModuleSize < 0 || (spec.ModuleSize > 0 && spec.Modules > spec.Genes/spec.ModuleSize) {
		return nil, fmt.Errorf("expr: %d modules of %d genes exceed %d genes",
			spec.Modules, spec.ModuleSize, spec.Genes)
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	m := NewMatrix(spec.Genes, spec.Samples)
	res := &SyntheticResult{M: m}
	// Background: independent N(0,1).
	for g := 0; g < spec.Genes; g++ {
		for s := 0; s < spec.Samples; s++ {
			m.Set(g, s, rng.NormFloat64())
		}
	}
	// Planted modules on a random gene subset.
	perm := rng.Perm(spec.Genes)
	next := 0
	for mi := 0; mi < spec.Modules; mi++ {
		latent := make([]float64, spec.Samples)
		for s := range latent {
			latent[s] = rng.NormFloat64()
		}
		mod := make([]int32, spec.ModuleSize)
		for i := 0; i < spec.ModuleSize; i++ {
			gid := perm[next]
			next++
			mod[i] = int32(gid)
			for s := 0; s < spec.Samples; s++ {
				m.Set(gid, s, latent[s]+spec.Noise*rng.NormFloat64())
			}
		}
		res.Modules = append(res.Modules, mod)
	}
	return res, nil
}
