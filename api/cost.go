package api

// Cost estimation: a pure function from a request's declared dimensions to
// its predicted compute cost, in cost units. One unit ≈ one millisecond of
// single-threaded kernel time on the calibration host below — the
// admission gate's currency (DESIGN.md §8). Estimates are admission
// weights, not SLOs: what matters is that a 4096×100 cold sweep weighs
// ~three orders of magnitude more than a warm dataset request, so a burst
// of the former cannot starve the latter.
//
// Calibration (2-vCPU AVX2 Xeon; three alternating runs each):
//
//	go test -bench=SweepKernel ./internal/expr, 4096x100, one worker:
//	  32.4–35.8 ms / (4096·4095/2 pairs · 100 samples) ≈ 0.042 ns per pair·sample
//	bash perfbench/run.sh --workload dataset-cold --seed 1 --seconds 20:
//	  cpu_ms_per_req 7.3–8.5 ms (one cold dataset request, end to end)
//
// The sweep is timed on a single worker over the float32-prefilter
// 6×16 kernel, the only one the engine runs, so the sweep coefficient
// below is 0.42e-7 units per pair·sample; the request's precision field
// does not change it. The downstream chain (order → filter → cluster →
// score) on thresholded correlation networks is a small multiple of the
// vertex count; edge-list sources are dominated by parse plus per-edge
// kernel work.

const (
	// costSweep: the correlation sweep, units per correlated pair·sample.
	costSweep = 0.42e-7
	// costSynthCell: synthesizing one matrix cell (units per cell).
	costSynthCell = 1e-6
	// costDownstreamVertex: order+filter+cluster+score per vertex of a
	// thresholded correlation network (units per gene).
	costDownstreamVertex = 2e-3
	// costEdgeListByte: parsing an inline edge list (≈50 MB/s).
	costEdgeListByte = 2e-5
	// costEdgeListEdge: per-edge kernel work (chordal filter dominates).
	costEdgeListEdge = 1.5e-3
	// edgeListBytesPerEdge approximates "u v\n" line width for edge-count
	// estimation from body size.
	edgeListBytesPerEdge = 12
	// costDataset: one built-in evaluation dataset request end to end,
	// cold (they are paper-sized and nearly constant; perfbench
	// dataset-cold measures 7.3–8.5 ms CPU per request).
	costDataset = 8
	// costBase: fixed per-request overhead (resolution, HTTP, marshalling).
	costBase = 1
)

// CostEstimate is a request's predicted compute cost.
type CostEstimate struct {
	// Units is the total, in cost units (≈ milliseconds of single-threaded
	// kernel time on the reference machine).
	Units float64 `json:"units"`
	// Source is the share spent materializing the input (synthesis or
	// parsing); Network the correlation sweep; Downstream the
	// order/filter/cluster/score chain.
	Source     float64 `json:"source"`
	Network    float64 `json:"network"`
	Downstream float64 `json:"downstream"`
}

// EstimateCost predicts the compute cost of one cold end-to-end run of r
// from its declared dimensions. It is a pure function of the normalized
// request (r is normalized internally when possible; an unnormalizable
// request estimates from the raw fields). Cache residency is deliberately
// outside the model — the serving layer discounts warm requests itself,
// because residency is server state, not request content.
func EstimateCost(r *Request) CostEstimate {
	if n, err := r.Normalized(); err == nil {
		r = n
	}
	var c CostEstimate
	switch {
	case r.Network.Synthesis != nil:
		s := r.Network.Synthesis
		pairs := float64(s.Genes) * float64(s.Genes-1) / 2
		samples := float64(s.Samples)
		c.Source = float64(s.Genes) * samples * costSynthCell
		c.Network = pairs * samples * costSweep
		c.Downstream = float64(s.Genes) * costDownstreamVertex
	case r.Network.EdgeList != "":
		bytes := float64(len(r.Network.EdgeList))
		edges := bytes / edgeListBytesPerEdge
		c.Source = bytes * costEdgeListByte
		c.Downstream = edges * costEdgeListEdge
	case r.Network.Dataset != "":
		c.Downstream = costDataset
	}
	if r.Filter.Algorithm == AlgorithmNone {
		// No sampling stage; clustering the unfiltered network still runs,
		// so keep half the downstream weight.
		c.Downstream /= 2
	}
	c.Units = costBase + c.Source + c.Network + c.Downstream
	return c
}
