package api

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// Synthesis dimension caps (see validate): bound the memory and compute a
// single request can demand from a shared daemon.
const (
	// MaxSynthesisGenes caps the gene dimension (and hence the O(genes²)
	// correlation sweep).
	MaxSynthesisGenes = 32768
	// MaxSynthesisSamples caps the sample dimension.
	MaxSynthesisSamples = 2048
	// MaxSynthesisCells caps genes×samples (the matrix is 8 bytes per
	// cell: 2²⁵ cells = 256 MiB).
	MaxSynthesisCells = 1 << 25
)

// MaxFilterP caps filter.p. Every simulated rank of a parallel filter
// keeps one message queue per peer, so a run costs memory quadratic in P;
// the cap is 4× the largest P any figure runs (64).
const MaxFilterP = 256

// Planted-module defaults of a synthesis source.
const (
	defaultModules    = 16
	defaultModuleSize = 12
)

// Normalized validates r and returns a deep copy with every default
// resolved into an explicit value: pointers are filled, names are spelled
// out, and fields that the selected algorithm ignores are cleared. Two
// requests that normalize to the same bytes denote the same computation.
// The receiver is not modified. Validation failures return a *Error with
// code bad_request.
func (r *Request) Normalized() (*Request, error) {
	if err := r.validate(); err != nil {
		return nil, err
	}
	n := r.clone()
	n.Version = Version

	// Network source defaults.
	if n.Network.Synthesis != nil {
		s := n.Network.Synthesis
		s.Modules = fillInt(s.Modules, defaultModules)
		s.ModuleSize = fillInt(s.ModuleSize, defaultModuleSize)
		s.Noise = fillFloat(s.Noise, 0.1)
		s.Ontology = fillBool(s.Ontology, true)
		if n.Network.Correlation == nil {
			n.Network.Correlation = &CorrelationSpec{}
		}
		c := n.Network.Correlation
		if c.Statistic == "" {
			c.Statistic = "pearson"
		}
		c.MinAbsR = fillFloat(c.MinAbsR, 0.95)
		c.MaxP = fillFloat(c.MaxP, 0.0005)
		if c.Precision == "" {
			c.Precision = "float64"
		}
	}

	// Filter defaults. "none" ignores ordering and P entirely, so they are
	// cleared rather than defaulted — requests differing only in ignored
	// fields normalize to the same bytes.
	if n.Filter.Algorithm == "" {
		n.Filter.Algorithm = "chordal-nocomm"
	}
	if n.Filter.Algorithm == AlgorithmNone {
		n.Filter.Ordering = ""
		n.Filter.P = 0
	} else {
		if n.Filter.Ordering == "" {
			n.Filter.Ordering = "NO"
		}
		if n.Filter.P < 1 {
			n.Filter.P = 1
		}
	}

	// Cluster defaults (the paper's MCODE configuration).
	n.Cluster.MinScore = fillFloat(n.Cluster.MinScore, 3.0)
	n.Cluster.MinSize = fillInt(n.Cluster.MinSize, 4)
	n.Cluster.VertexWeightPct = fillFloat(n.Cluster.VertexWeightPct, 0.2)
	n.Cluster.Haircut = fillBool(n.Cluster.Haircut, true)
	if !n.Cluster.Fluff {
		// The threshold is meaningless without fluff; pinning it to the
		// default keeps requests that differ only in an ignored knob on one
		// normalized form (and one cache key).
		n.Cluster.FluffDensityThreshold = nil
	}
	n.Cluster.FluffDensityThreshold = fillFloat(n.Cluster.FluffDensityThreshold, 0.1)

	// Scoring defaults to on exactly when the source carries an ontology.
	n.Score.Enabled = fillBool(n.Score.Enabled, n.hasOntology())
	return n, nil
}

// hasOntology reports whether the request's source provides an ontology to
// score against.
func (r *Request) hasOntology() bool {
	switch {
	case r.Score.DAG != "":
		return true
	case r.Network.Dataset != "":
		return true
	case r.Network.Synthesis != nil:
		return r.Network.Synthesis.Ontology == nil || *r.Network.Synthesis.Ontology
	}
	return false
}

// validate checks structure and ranges on the raw (pre-normalization)
// request.
func (r *Request) validate() error {
	if r.Version != 0 && r.Version != Version {
		return Errorf(CodeBadRequest, "unsupported version %d (this server speaks v%d)", r.Version, Version)
	}
	src := 0
	for _, set := range []bool{r.Network.EdgeList != "", r.Network.Dataset != "", r.Network.Synthesis != nil} {
		if set {
			src++
		}
	}
	if src != 1 {
		return Errorf(CodeBadRequest, "network needs exactly one of edgeList, dataset, synthesis (got %d)", src)
	}
	if r.Network.Dataset != "" && !contains(datasetNames, r.Network.Dataset) {
		return Errorf(CodeBadRequest, "unknown dataset %q (have %s)", r.Network.Dataset, strings.Join(datasetNames, ", "))
	}
	if r.Network.Correlation != nil {
		if r.Network.Synthesis == nil {
			return Errorf(CodeBadRequest, "correlation options apply only to matrix sources (synthesis)")
		}
		c := r.Network.Correlation
		if c.Statistic != "" && c.Statistic != "pearson" && c.Statistic != "spearman" {
			return Errorf(CodeBadRequest, "unknown correlation statistic %q (want pearson or spearman)", c.Statistic)
		}
		if c.MinAbsR != nil && (*c.MinAbsR < 0 || *c.MinAbsR > 1) {
			return Errorf(CodeBadRequest, "minAbsR %v out of range [0, 1]", *c.MinAbsR)
		}
		if c.MaxP != nil && (*c.MaxP < 0 || *c.MaxP > 1) {
			return Errorf(CodeBadRequest, "maxP %v out of range [0, 1]", *c.MaxP)
		}
		if c.Precision != "" && c.Precision != "float64" && c.Precision != "float32" {
			return Errorf(CodeBadRequest, "unknown correlation precision %q (want float64 or float32)", c.Precision)
		}
	}
	if s := r.Network.Synthesis; s != nil {
		if s.Genes <= 0 || s.Samples <= 2 {
			return Errorf(CodeBadRequest, "synthesis needs genes > 0 and samples > 2 (got %d×%d)", s.Genes, s.Samples)
		}
		// Dimension caps: the spec amplifies into a genes×samples float64
		// matrix and an O(genes²) correlation sweep, so an unbounded request
		// is a remote OOM/CPU attack on the daemon. The caps comfortably
		// cover the paper's largest evaluation shapes (27,896 vertices;
		// 2048×64 benchmark matrices).
		if s.Genes > MaxSynthesisGenes || s.Samples > MaxSynthesisSamples {
			return Errorf(CodeBadRequest, "synthesis shape %d×%d exceeds the %d×%d cap", s.Genes, s.Samples, MaxSynthesisGenes, MaxSynthesisSamples)
		}
		if s.Genes*s.Samples > MaxSynthesisCells {
			return Errorf(CodeBadRequest, "synthesis matrix of %d cells exceeds the %d-cell cap", s.Genes*s.Samples, MaxSynthesisCells)
		}
		if (s.Modules != nil && *s.Modules < 0) || (s.ModuleSize != nil && *s.ModuleSize < 0) {
			return Errorf(CodeBadRequest, "synthesis modules and moduleSize must be non-negative")
		}
		// The planted modules, defaults included, must fit in the genes.
		// Dividing instead of multiplying keeps the bound overflow-safe.
		m, k := *fillInt(s.Modules, defaultModules), *fillInt(s.ModuleSize, defaultModuleSize)
		if k > 0 && m > s.Genes/k {
			return Errorf(CodeBadRequest, "synthesis modules (%d of %d genes) exceed its %d genes", m, k, s.Genes)
		}
		if s.Noise != nil && *s.Noise < 0 {
			return Errorf(CodeBadRequest, "synthesis noise must be non-negative")
		}
	}
	if a := r.Filter.Algorithm; a != "" && a != AlgorithmNone && !contains(Algorithms(), a) {
		return Errorf(CodeBadRequest, "unknown algorithm %q (have %s)", a, strings.Join(Algorithms(), ", "))
	}
	if o := r.Filter.Ordering; o != "" && !contains(Orderings(), o) {
		return Errorf(CodeBadRequest, "unknown ordering %q (have %s)", o, strings.Join(Orderings(), ", "))
	}
	if r.Filter.P < 0 {
		return Errorf(CodeBadRequest, "filter p must be non-negative (got %d)", r.Filter.P)
	}
	if r.Filter.P > MaxFilterP {
		return Errorf(CodeBadRequest, "filter p %d exceeds the cap of %d", r.Filter.P, MaxFilterP)
	}
	// The MCODE kernel treats zero as "use the default", so an explicit
	// non-positive knob is rejected instead of silently remapped.
	if v := r.Cluster.MinScore; v != nil && *v <= 0 {
		return Errorf(CodeBadRequest, "cluster minScore must be positive (got %v); omit it for the default 3.0", *v)
	}
	if v := r.Cluster.MinSize; v != nil && *v < 1 {
		return Errorf(CodeBadRequest, "cluster minSize must be at least 1 (got %d); omit it for the default 4", *v)
	}
	if v := r.Cluster.VertexWeightPct; v != nil && (*v <= 0 || *v >= 1) {
		return Errorf(CodeBadRequest, "cluster vertexWeightPct must be in (0, 1) (got %v)", *v)
	}
	if v := r.Cluster.FluffDensityThreshold; v != nil && *v <= 0 {
		return Errorf(CodeBadRequest, "cluster fluffDensityThreshold must be positive (got %v)", *v)
	}
	if r.DeadlineMillis < 0 {
		return Errorf(CodeBadRequest, "deadline_ms must be non-negative (got %d); omit it for no deadline", r.DeadlineMillis)
	}
	if (r.Score.DAG == "") != (r.Score.Annotations == "") {
		return Errorf(CodeBadRequest, "score dag and annotations must be provided together")
	}
	if r.Score.DAG != "" && r.Network.EdgeList == "" {
		return Errorf(CodeBadRequest, "an inline ontology is only valid with an edge-list source (dataset and synthesis sources carry their own)")
	}
	if r.Score.Enabled != nil && *r.Score.Enabled && !r.hasOntology() {
		return Errorf(CodeBadRequest, "score.enabled is true but the request has no ontology (use a dataset, a synthesis with ontology, or inline dag+annotations)")
	}
	return nil
}

// Fingerprint is the content identity of the request's input data: a hash
// of the normalized network source and the inline ontology (the per-run
// parameters — correlation thresholds, filter variant, cluster knobs,
// seeds — are carried in the engine's artifact keys instead). The pipeline
// uses it as the cache namespace, so two requests with equal fingerprints
// share network, order, filter, cluster and score artifacts. Correlation
// parameters are left out because the network-stage key carries them:
// requests that differ only there build their own networks under one
// namespace. The identity is the source text: two edge lists that
// parse to the same graph but differ in whitespace fingerprint differently
// (and merely compute twice — never incorrectly). Call on a normalized
// request; normalization-irrelevant spellings of the same source would
// otherwise fingerprint apart.
func (r *Request) Fingerprint() string {
	net := r.Network
	net.Correlation = nil // a run parameter, not data identity
	id := struct {
		Network NetworkSource `json:"network"`
		DAG     string        `json:"dag,omitempty"`
		Ann     string        `json:"ann,omitempty"`
	}{net, r.Score.DAG, r.Score.Annotations}
	b, err := json.Marshal(id)
	if err != nil {
		// Marshalling a struct of strings, ints and floats cannot fail.
		panic(fmt.Sprintf("api: fingerprint marshal: %v", err))
	}
	sum := sha256.Sum256(b)
	return "v1:" + hex.EncodeToString(sum[:16])
}

// clone returns a deep copy of r (all pointer fields re-allocated).
func (r *Request) clone() *Request {
	n := *r
	if r.Network.Synthesis != nil {
		s := *r.Network.Synthesis
		s.Modules = copyInt(s.Modules)
		s.ModuleSize = copyInt(s.ModuleSize)
		s.Noise = copyFloat(s.Noise)
		s.Ontology = copyBool(s.Ontology)
		n.Network.Synthesis = &s
	}
	if r.Network.Correlation != nil {
		c := *r.Network.Correlation
		c.MinAbsR = copyFloat(c.MinAbsR)
		c.MaxP = copyFloat(c.MaxP)
		n.Network.Correlation = &c
	}
	n.Cluster.MinScore = copyFloat(r.Cluster.MinScore)
	n.Cluster.MinSize = copyInt(r.Cluster.MinSize)
	n.Cluster.VertexWeightPct = copyFloat(r.Cluster.VertexWeightPct)
	n.Cluster.Haircut = copyBool(r.Cluster.Haircut)
	n.Cluster.FluffDensityThreshold = copyFloat(r.Cluster.FluffDensityThreshold)
	n.Score.Enabled = copyBool(r.Score.Enabled)
	return &n
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func fillInt(p *int, def int) *int {
	if p == nil {
		return &def
	}
	return p
}

func fillFloat(p *float64, def float64) *float64 {
	if p == nil {
		return &def
	}
	return p
}

func fillBool(p *bool, def bool) *bool {
	if p == nil {
		return &def
	}
	return p
}

func copyInt(p *int) *int {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

func copyFloat(p *float64) *float64 {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}

func copyBool(p *bool) *bool {
	if p == nil {
		return nil
	}
	v := *p
	return &v
}
