// Package api defines the versioned, JSON-serializable request/response
// schema of the parsample service: the wire form of one end-to-end pipeline
// run (network source → sampling filter → MCODE clusters → AEES scores).
//
// A Request names its network source (an inline edge list, one of the
// paper's evaluation datasets, or a synthesized expression matrix), the
// filter variant (algorithm × ordering × P × seed), and the clustering /
// scoring options. Optional knobs whose zero value would be ambiguous are
// pointers: nil selects the documented default, a set pointer is honored
// literally. Normalize resolves every default into an explicit value, so a
// normalized Request is self-describing — two requests that normalize to
// the same bytes denote the same computation, which is exactly the identity
// the pipeline engine's artifact store caches under (see Fingerprint).
//
// A Response is a pure function of its normalized Request: it carries no
// timestamps, durations, or cache provenance, so repeated runs of one
// request marshal to byte-identical JSON (the property the determinism
// tests assert and the HTTP daemon's caching relies on). Progress and
// cache provenance travel out of band: the daemon reports per-stage events
// over SSE and a cache header (see internal/server).
//
// Compatibility policy: Version is 1. Within v1, fields are only added
// (never renamed, removed, or repurposed), added fields default to the
// pre-addition behavior when absent, and unknown fields are rejected by the
// daemon so typos fail loudly instead of silently selecting defaults. A
// breaking change bumps Version and the /v1/ URL prefix.
package api

import (
	"fmt"

	"parsample/internal/graph"
	"parsample/internal/sampling"
)

// Version is the schema version this package implements.
const Version = 1

// Request is one end-to-end pipeline run in wire form.
type Request struct {
	// Version is the schema version; 0 normalizes to the current Version.
	Version int `json:"version"`
	// Network selects the input network.
	Network NetworkSource `json:"network"`
	// Filter selects the sampling variant.
	Filter FilterSpec `json:"filter"`
	// Cluster configures MCODE.
	Cluster ClusterSpec `json:"cluster"`
	// Score configures AEES scoring against an ontology.
	Score ScoreSpec `json:"score"`
	// Output selects optional response payloads.
	Output OutputSpec `json:"output"`
	// DeadlineMillis bounds the run's wall time in milliseconds, measured
	// from when the server starts executing (queue time under admission
	// control does not count — a queued request whose deadline expires is
	// rejected instead). 0 means no deadline. A run that exceeds its
	// deadline is cancelled mid-kernel and answered with a structured
	// deadline_exceeded error. Deadlines are run parameters: they take no
	// part in cache identity, so requests differing only in deadline share
	// every cached artifact.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
}

// NetworkSource selects the input network. Exactly one of EdgeList,
// Dataset, or Synthesis must be set.
type NetworkSource struct {
	// EdgeList is an inline whitespace edge list (one "u v" pair per line,
	// '#' comments, optional "# n m" header) — the format of
	// parsample.ReadNetwork.
	EdgeList string `json:"edgeList,omitempty"`
	// Dataset names one of the paper's evaluation networks (YNG, MID, UNT,
	// CRE). Dataset sources carry their own ontology, so scoring is
	// available without an inline one.
	Dataset string `json:"dataset,omitempty"`
	// Synthesis builds a correlation network from a synthesized expression
	// matrix with planted co-expression modules.
	Synthesis *SynthesisSpec `json:"synthesis,omitempty"`
	// Correlation configures correlation-network construction for matrix
	// sources (Synthesis). Must be unset for edge-list and dataset sources.
	Correlation *CorrelationSpec `json:"correlation,omitempty"`
}

// SynthesisSpec parameterizes the synthetic expression matrix (the stand-in
// for the paper's GSE5078/GSE5140 microarrays, DESIGN.md §1).
type SynthesisSpec struct {
	// Genes × Samples is the matrix shape. Both required.
	Genes   int `json:"genes"`
	Samples int `json:"samples"`
	// Modules is the number of planted co-expression modules (default 16).
	Modules *int `json:"modules,omitempty"`
	// ModuleSize is the genes per module (default 12). Modules ×
	// ModuleSize, defaults included, must not exceed Genes.
	ModuleSize *int `json:"moduleSize,omitempty"`
	// Noise is the within-module noise std-dev (default 0.1).
	Noise *float64 `json:"noise,omitempty"`
	// Seed drives the synthesis (and the generated ontology). The seed is
	// used literally; there is no sentinel value.
	Seed int64 `json:"seed"`
	// Ontology controls whether a matching GO-like DAG and annotations are
	// generated over the planted modules, enabling the scoring stage
	// (default true).
	Ontology *bool `json:"ontology,omitempty"`
}

// CorrelationSpec configures correlation-network construction.
type CorrelationSpec struct {
	// Statistic is "pearson" (default) or "spearman".
	Statistic string `json:"statistic,omitempty"`
	// MinAbsR is the minimum |correlation| (default 0.95; an explicit 0
	// disables the floor).
	MinAbsR *float64 `json:"minAbsR,omitempty"`
	// MaxP is the maximum p-value (default 0.0005; an explicit 0 keeps only
	// perfect correlations).
	MaxP *float64 `json:"maxP,omitempty"`
	// Negative admits strong negative correlations as edges (default false).
	Negative bool `json:"negative"`
	// Precision is accepted for compatibility: "float64" (default) or
	// "float32", anything else is rejected. The engine ignores it — every
	// sweep runs one float32 prefilter whose candidates are decided in
	// float64 — so both values produce the same network at the same cost.
	Precision string `json:"precision,omitempty"`
}

// AlgorithmNone is the filter algorithm that skips sampling entirely: the
// pipeline clusters (and scores) the unfiltered input network.
const AlgorithmNone = "none"

// FilterSpec selects the sampling variant.
type FilterSpec struct {
	// Algorithm is one of Algorithms() — chordal-seq, chordal-comm,
	// chordal-nocomm, randomwalk-seq, randomwalk-par, forestfire-seq,
	// forestfire-par — or "none" to skip filtering (default
	// chordal-nocomm).
	Algorithm string `json:"algorithm,omitempty"`
	// Ordering is the vertex processing order, one of Orderings(): NO, HD,
	// LD, RCM, RAND (default NO). Ignored (and normalized away) when
	// Algorithm is "none".
	Ordering string `json:"ordering,omitempty"`
	// P is the number of simulated processors (default 1).
	P int `json:"p,omitempty"`
	// Seed drives randomized filters and the RAND ordering, used literally
	// (the ordering shuffle and the samplers draw from decorrelated streams
	// derived from it — see parsample.FilterOptions.Seed).
	Seed int64 `json:"seed"`
}

// ClusterSpec configures MCODE. All knobs must be positive when set; the
// underlying kernel treats zero as "default", so an explicit zero is
// rejected rather than silently remapped.
type ClusterSpec struct {
	// MinScore filters reported clusters (default 3.0, the paper's bar).
	MinScore *float64 `json:"minScore,omitempty"`
	// MinSize filters clusters smaller than this many vertices (default 4).
	MinSize *int `json:"minSize,omitempty"`
	// VertexWeightPct is the MCODE node-score cutoff (default 0.2).
	VertexWeightPct *float64 `json:"vertexWeightPct,omitempty"`
	// Haircut removes vertices with fewer than 2 in-complex connections
	// (default true).
	Haircut *bool `json:"haircut,omitempty"`
	// Fluff enables MCODE fluff post-processing (default false).
	Fluff bool `json:"fluff"`
	// FluffDensityThreshold is the fluff density bar (default 0.1; only
	// meaningful with Fluff).
	FluffDensityThreshold *float64 `json:"fluffDensityThreshold,omitempty"`
}

// ScoreSpec configures AEES scoring. Dataset and ontology-bearing synthesis
// sources carry their own ontology; edge-list sources may supply one inline.
type ScoreSpec struct {
	// Enabled turns the scoring stage on or off. Default: true when the
	// network source has an ontology (dataset, synthesis with Ontology, or
	// inline DAG+Annotations), false otherwise. Enabling it without an
	// ontology is a validation error.
	Enabled *bool `json:"enabled,omitempty"`
	// DAG is an inline ontology in the format of internal/ontology.WriteDAG
	// ([Term]/id:/is_a: stanzas). Requires Annotations; only valid with
	// edge-list sources.
	DAG string `json:"dag,omitempty"`
	// Annotations is an inline gene→term table ("gene<TAB>term" lines).
	Annotations string `json:"annotations,omitempty"`
}

// OutputSpec selects optional response payloads.
type OutputSpec struct {
	// Edges includes the filtered network's edge list in the response
	// (default false: counts only — the list can be large).
	Edges bool `json:"edges"`
}

// Response is the result of one pipeline run. It is a pure function of the
// normalized request: repeated runs marshal to byte-identical JSON.
type Response struct {
	// Version echoes the schema version.
	Version int `json:"version"`
	// Request is the normalized request this response answers.
	Request *Request `json:"request"`
	// Network describes the input (or built correlation) network.
	Network NetworkInfo `json:"network"`
	// Filtered describes the sampled subgraph; nil when the filter
	// algorithm was "none".
	Filtered *FilteredInfo `json:"filtered,omitempty"`
	// Clusters are the MCODE complexes of the (filtered) network.
	Clusters []Cluster `json:"clusters"`
	// Scores are the clusters' AEES summaries, parallel to Clusters; absent
	// when scoring was disabled.
	Scores []ClusterScore `json:"scores,omitempty"`
}

// NetworkInfo summarizes a network.
type NetworkInfo struct {
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
}

// FilteredInfo summarizes the sampling stage.
type FilteredInfo struct {
	// Edges is the sampled subgraph's edge count.
	Edges int `json:"edges"`
	// BorderEdges counts cross-partition edges in the input; Duplicates
	// counts border edges independently admitted by more than one
	// processor.
	BorderEdges int `json:"borderEdges"`
	Duplicates  int `json:"duplicates"`
	// EdgeList is the sampled edge list (u < v, sorted), present only when
	// Output.Edges was requested.
	EdgeList [][2]int32 `json:"edgeList,omitempty"`
}

// Cluster is one MCODE complex.
type Cluster struct {
	ID       int     `json:"id"`
	Vertices []int32 `json:"vertices"`
	Edges    int     `json:"edges"`
	Density  float64 `json:"density"`
	Score    float64 `json:"score"`
}

// ClusterScore is one cluster's AEES summary.
type ClusterScore struct {
	ClusterID     int     `json:"clusterId"`
	AEES          float64 `json:"aees"`
	MaxEdgeScore  int     `json:"maxEdgeScore"`
	DominantTerm  int     `json:"dominantTerm"`
	DominantCount int     `json:"dominantCount"`
	Edges         int     `json:"edges"`
}

// Error is the structured error body every non-2xx daemon response carries.
type Error struct {
	// Code is a stable machine-readable class: bad_request, not_found,
	// cancelled, internal, payload_too_large, overloaded, over_capacity,
	// degraded, deadline_exceeded.
	Code string `json:"code"`
	// Message is human-readable detail.
	Message string `json:"message"`
	// RetryAfterSec is the server's suggested retry delay for load-shedding
	// rejections (overloaded, over_capacity, degraded); it mirrors the HTTP
	// Retry-After header so non-HTTP consumers see the same hint. 0 on
	// errors retrying won't fix.
	RetryAfterSec int `json:"retryAfterSec,omitempty"`

	// cause preserves the underlying error (errors.Is/As through Unwrap) so
	// transport layers can classify wrapped failures — e.g. the body-limit
	// path detecting http.MaxBytesError behind a decode error.
	cause error
}

// Error implements the error interface.
func (e *Error) Error() string { return e.Code + ": " + e.Message }

// Unwrap exposes the underlying cause to errors.Is and errors.As.
func (e *Error) Unwrap() error { return e.cause }

// Errorf builds an *Error with a formatted message.
func Errorf(code, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...)}
}

// WrapError builds an *Error whose cause is preserved for errors.Is/As.
func WrapError(code string, cause error, format string, args ...any) *Error {
	return &Error{Code: code, Message: fmt.Sprintf(format, args...), cause: cause}
}

// Error codes.
const (
	CodeBadRequest = "bad_request"
	CodeNotFound   = "not_found"
	CodeCancelled  = "cancelled"
	CodeInternal   = "internal"
	// CodePayloadTooLarge: the request body exceeded the daemon's body
	// limit (HTTP 413).
	CodePayloadTooLarge = "payload_too_large"
	// CodeOverloaded: transient load shedding — the admission queue or the
	// client's fair-share budget is full; retry after RetryAfterSec
	// (HTTP 429).
	CodeOverloaded = "overloaded"
	// CodeOverCapacity: the request can never be admitted as posed — its
	// estimated cost exceeds the daemon's whole admission budget, or its
	// deadline is shorter than its estimated compute time (HTTP 503).
	CodeOverCapacity = "over_capacity"
	// CodeDegraded: the daemon is under sustained pressure and is shedding
	// expensive cold work to keep answering cheap requests; retry after
	// RetryAfterSec (HTTP 503).
	CodeDegraded = "degraded"
	// CodeDeadlineExceeded: the run was cancelled because its deadline_ms
	// expired mid-flight (HTTP 504).
	CodeDeadlineExceeded = "deadline_exceeded"
)

// datasetNames lists the named evaluation networks a request may reference.
var datasetNames = []string{"YNG", "MID", "UNT", "CRE"}

// Algorithms returns the wire names of the sampling filters, plus
// AlgorithmNone. The names are derived from the kernel enum so they cannot
// drift from the implementation.
func Algorithms() []string {
	out := make([]string, 0, len(sampling.All)+1)
	for _, a := range sampling.All {
		out = append(out, a.String())
	}
	return append(out, AlgorithmNone)
}

// Orderings returns the wire names of the vertex orderings.
func Orderings() []string {
	all := append(append([]graph.Ordering(nil), graph.AllOrderings...), graph.RandomOrder)
	out := make([]string, len(all))
	for i, o := range all {
		out[i] = o.String()
	}
	return out
}
