package api

import (
	"errors"
	"strings"
	"testing"
)

func costSynthReq(genes, samples int, precision string) *Request {
	r := &Request{Network: NetworkSource{Synthesis: &SynthesisSpec{Genes: genes, Samples: samples, Seed: 1}}}
	if precision != "" {
		r.Network.Correlation = &CorrelationSpec{Precision: precision}
	}
	return r
}

// The cost model's load-bearing property is ordering: bigger sweeps must
// weigh more, and a cold 4096×100 sweep must outweigh a cold dataset
// request. The precision field, which the engine ignores, must not change
// the estimate. (Warm-request discounting is server
// state, applied at the admission layer, not here.)
func TestEstimateCostOrdering(t *testing.T) {
	small := EstimateCost(costSynthReq(192, 24, ""))
	mid := EstimateCost(costSynthReq(2048, 64, ""))
	big := EstimateCost(costSynthReq(4096, 100, ""))
	if !(small.Units < mid.Units && mid.Units < big.Units) {
		t.Fatalf("cost not monotone in matrix shape: %v %v %v", small.Units, mid.Units, big.Units)
	}
	for _, prec := range []string{"float32", "float64"} {
		if c := EstimateCost(costSynthReq(4096, 100, prec)); c != big {
			t.Fatalf("precision %q estimate %+v differs from the default's %+v", prec, c, big)
		}
	}
	ds := EstimateCost(&Request{Network: NetworkSource{Dataset: "YNG"}})
	if big.Units <= ds.Units {
		t.Fatalf("4096×100 cold sweep (%v units) should outweigh a cold dataset request (%v units)", big.Units, ds.Units)
	}
}

// Calibration anchor: the BENCH_6 2048×64 sweep runs in ~13–17 ms, so its
// estimate must land within the same order of magnitude (one unit ≈ one
// reference millisecond).
func TestEstimateCostCalibration(t *testing.T) {
	c := EstimateCost(costSynthReq(2048, 64, ""))
	if c.Network < 5 || c.Network > 60 {
		t.Fatalf("2048×64 sweep estimate = %v units, want ≈17 (same order)", c.Network)
	}
	if c.Units < c.Network {
		t.Fatalf("total %v < network share %v", c.Units, c.Network)
	}
}

func TestEstimateCostEdgeList(t *testing.T) {
	small := EstimateCost(&Request{Network: NetworkSource{EdgeList: "0 1\n1 2\n"}})
	big := EstimateCost(&Request{Network: NetworkSource{EdgeList: strings.Repeat("0 1\n", 100000)}})
	if small.Units >= big.Units {
		t.Fatalf("edge-list cost not monotone in size: %v vs %v", small.Units, big.Units)
	}
}

func TestDeadlineValidation(t *testing.T) {
	r := costSynthReq(192, 8, "")
	r.DeadlineMillis = -1
	if _, err := r.Normalized(); err == nil {
		t.Fatal("negative deadline_ms accepted")
	}
	r.DeadlineMillis = 250
	n, err := r.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.DeadlineMillis != 250 {
		t.Fatalf("deadline_ms = %d after normalization", n.DeadlineMillis)
	}
	// Deadlines are run parameters, not data identity.
	r2 := costSynthReq(192, 8, "")
	n2, _ := r2.Normalized()
	if n.Fingerprint() != n2.Fingerprint() {
		t.Fatal("deadline_ms changed the content fingerprint")
	}
}

func TestWrapErrorPreservesCause(t *testing.T) {
	cause := errors.New("root")
	e := WrapError(CodeBadRequest, cause, "outer: %v", cause)
	if !errors.Is(e, cause) {
		t.Fatal("errors.Is does not reach the cause")
	}
	var ae *Error
	if !errors.As(error(e), &ae) || ae.Code != CodeBadRequest {
		t.Fatal("errors.As lost the *Error")
	}
}
