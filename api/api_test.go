package api

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

func synthReq() *Request {
	return &Request{Network: NetworkSource{Synthesis: &SynthesisSpec{Genes: 256, Samples: 32, Seed: 7}}}
}

func TestNormalizedFillsExplicitDefaults(t *testing.T) {
	n, err := synthReq().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Version != Version {
		t.Fatalf("version = %d, want %d", n.Version, Version)
	}
	s := n.Network.Synthesis
	if *s.Modules != 16 || *s.ModuleSize != 12 || *s.Noise != 0.1 || !*s.Ontology {
		t.Fatalf("synthesis defaults not filled: %+v", s)
	}
	c := n.Network.Correlation
	if c == nil || c.Statistic != "pearson" || *c.MinAbsR != 0.95 || *c.MaxP != 0.0005 || c.Precision != "float64" {
		t.Fatalf("correlation defaults not filled: %+v", c)
	}
	if n.Filter.Algorithm != "chordal-nocomm" || n.Filter.Ordering != "NO" || n.Filter.P != 1 {
		t.Fatalf("filter defaults not filled: %+v", n.Filter)
	}
	if *n.Cluster.MinScore != 3.0 || *n.Cluster.MinSize != 4 || *n.Cluster.VertexWeightPct != 0.2 ||
		!*n.Cluster.Haircut || *n.Cluster.FluffDensityThreshold != 0.1 {
		t.Fatalf("cluster defaults not filled: %+v", n.Cluster)
	}
	if !*n.Score.Enabled {
		t.Fatal("ontology-bearing synthesis should default scoring on")
	}
}

func TestNormalizedDoesNotMutateReceiver(t *testing.T) {
	r := synthReq()
	if _, err := r.Normalized(); err != nil {
		t.Fatal(err)
	}
	if r.Network.Synthesis.Modules != nil || r.Network.Correlation != nil || r.Filter.Algorithm != "" {
		t.Fatalf("Normalized mutated its receiver: %+v", r)
	}
}

func TestNormalizedAlgorithmNoneClearsIgnoredFields(t *testing.T) {
	r := &Request{
		Network: NetworkSource{EdgeList: "0 1\n1 2\n"},
		Filter:  FilterSpec{Algorithm: AlgorithmNone, Ordering: "HD", P: 8},
	}
	n, err := r.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Filter.Ordering != "" || n.Filter.P != 0 {
		t.Fatalf("none should clear ordering/p: %+v", n.Filter)
	}
	if *n.Score.Enabled {
		t.Fatal("edge list without ontology should default scoring off")
	}
	// Ignored knobs must not change the normalized bytes.
	r2 := &Request{
		Network: NetworkSource{EdgeList: "0 1\n1 2\n"},
		Filter:  FilterSpec{Algorithm: AlgorithmNone, Ordering: "RCM", P: 2},
	}
	n2, err := r2.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	b1, _ := json.Marshal(n)
	b2, _ := json.Marshal(n2)
	if string(b1) != string(b2) {
		t.Fatalf("normalized forms differ:\n%s\n%s", b1, b2)
	}
}

func TestNormalizedPinsFluffThresholdWithoutFluff(t *testing.T) {
	th := 0.7
	r := synthReq()
	r.Cluster.FluffDensityThreshold = &th
	n, err := r.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if *n.Cluster.FluffDensityThreshold != 0.1 {
		t.Fatalf("threshold without fluff should normalize to the default, got %v", *n.Cluster.FluffDensityThreshold)
	}
	r.Cluster.Fluff = true
	n, err = r.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if *n.Cluster.FluffDensityThreshold != 0.7 {
		t.Fatalf("threshold with fluff should be honored, got %v", *n.Cluster.FluffDensityThreshold)
	}
}

func TestValidateRejections(t *testing.T) {
	zero := 0.0
	en := true
	hugeModules, moduleSize := 1<<62, 4
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"no source", Request{}, "exactly one"},
		{"two sources", Request{Network: NetworkSource{EdgeList: "0 1", Dataset: "YNG"}}, "exactly one"},
		{"bad dataset", Request{Network: NetworkSource{Dataset: "NOPE"}}, "unknown dataset"},
		{"bad version", Request{Version: 9, Network: NetworkSource{Dataset: "YNG"}}, "unsupported version"},
		{"bad algorithm", Request{Network: NetworkSource{Dataset: "YNG"}, Filter: FilterSpec{Algorithm: "quantum"}}, "unknown algorithm"},
		{"bad ordering", Request{Network: NetworkSource{Dataset: "YNG"}, Filter: FilterSpec{Ordering: "XX"}}, "unknown ordering"},
		{"negative p", Request{Network: NetworkSource{Dataset: "YNG"}, Filter: FilterSpec{P: -1}}, "non-negative"},
		{"huge p", Request{Network: NetworkSource{Dataset: "CRE"}, Filter: FilterSpec{Algorithm: "chordal-nocomm", P: 100000}}, "exceeds the cap"},
		{"zero minScore", Request{Network: NetworkSource{Dataset: "YNG"}, Cluster: ClusterSpec{MinScore: &zero}}, "minScore"},
		{"correlation on dataset", Request{Network: NetworkSource{Dataset: "YNG", Correlation: &CorrelationSpec{}}}, "matrix sources"},
		{"dag without ann", Request{Network: NetworkSource{EdgeList: "0 1"}, Score: ScoreSpec{DAG: "x"}}, "together"},
		{"dag on dataset", Request{Network: NetworkSource{Dataset: "YNG"}, Score: ScoreSpec{DAG: "x", Annotations: "y"}}, "edge-list source"},
		{"scoring without ontology", Request{Network: NetworkSource{EdgeList: "0 1"}, Score: ScoreSpec{Enabled: &en}}, "no ontology"},
		{"tiny synthesis", Request{Network: NetworkSource{Synthesis: &SynthesisSpec{Genes: 10, Samples: 2}}}, "samples > 2"},
		{"module genes overflow", Request{Network: NetworkSource{Synthesis: &SynthesisSpec{
			Genes: 64, Samples: 8, Modules: &hugeModules, ModuleSize: &moduleSize,
		}}}, "exceed"},
		{"default modules exceed genes", Request{Network: NetworkSource{Synthesis: &SynthesisSpec{Genes: 64, Samples: 8}}}, "exceed"},
		{"bad precision", Request{Network: NetworkSource{
			Synthesis:   &SynthesisSpec{Genes: 256, Samples: 32},
			Correlation: &CorrelationSpec{Precision: "float16"},
		}}, "precision"},
	}
	for _, tc := range cases {
		_, err := tc.req.Normalized()
		var ae *Error
		if !errors.As(err, &ae) || ae.Code != CodeBadRequest {
			t.Fatalf("%s: err = %v, want bad_request", tc.name, err)
		}
		if !strings.Contains(ae.Message, tc.want) {
			t.Fatalf("%s: message %q does not mention %q", tc.name, ae.Message, tc.want)
		}
	}
}

// The fingerprint identifies the input data, not the run parameters: filter
// and cluster knobs must not change it (they live in the engine's artifact
// keys), while any change to the source or inline ontology must.
func TestFingerprintCoversDataNotParameters(t *testing.T) {
	base, err := synthReq().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	fp := base.Fingerprint()
	if !strings.HasPrefix(fp, "v1:") {
		t.Fatalf("fingerprint %q lacks version prefix", fp)
	}

	r := synthReq()
	r.Filter = FilterSpec{Algorithm: "randomwalk-par", Ordering: "RAND", P: 16, Seed: 99}
	ms := 1.5
	r.Cluster.MinScore = &ms
	n, err := r.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Fingerprint() != fp {
		t.Fatal("run parameters changed the data fingerprint")
	}

	// Correlation parameters are run parameters too (they live in the
	// network-stage artifact key): requests differing only in thresholds,
	// sign gate or precision share one fingerprint, and the network key
	// tells their networks apart.
	r = synthReq()
	minR, maxP := 0.5, 0.01
	r.Network.Correlation = &CorrelationSpec{Statistic: "spearman", MinAbsR: &minR, MaxP: &maxP, Negative: true, Precision: "float32"}
	n, err = r.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Fingerprint() != fp {
		t.Fatal("correlation parameters changed the data fingerprint")
	}

	r = synthReq()
	r.Network.Synthesis.Seed = 8
	n, err = r.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.Fingerprint() == fp {
		t.Fatal("different synthesis seed kept the fingerprint")
	}

	e1, _ := (&Request{Network: NetworkSource{EdgeList: "0 1\n"}}).Normalized()
	e2, _ := (&Request{Network: NetworkSource{EdgeList: "0 1\n"}, Score: ScoreSpec{DAG: "[Term]\nid: 0\n", Annotations: "0\t0\n"}}).Normalized()
	if e1.Fingerprint() == e2.Fingerprint() {
		t.Fatal("inline ontology did not change the fingerprint")
	}
}

func TestReadRequestStrictness(t *testing.T) {
	if _, err := UnmarshalRequest([]byte(`{"network":{"dataset":"YNG"},"filterr":{}}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := UnmarshalRequest([]byte(`{"network":{"dataset":"YNG"}} trailing`)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
	req, err := UnmarshalRequest([]byte(`{"network":{"dataset":"YNG"},"filter":{"algorithm":"chordal-seq","seed":3}}`))
	if err != nil {
		t.Fatal(err)
	}
	if req.Network.Dataset != "YNG" || req.Filter.Seed != 3 {
		t.Fatalf("decoded request: %+v", req)
	}
}

// A normalized request survives a JSON round trip byte-identically — the
// property that makes the normalized form a stable wire identity.
func TestNormalizedRoundTripStable(t *testing.T) {
	n, err := synthReq().Normalized()
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	back, err := UnmarshalRequest(b1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("round trip changed bytes:\n%s\n%s", b1, b2)
	}
}

func TestNameListsCoverKernels(t *testing.T) {
	algs := Algorithms()
	if len(algs) != 8 || algs[len(algs)-1] != AlgorithmNone {
		t.Fatalf("algorithms = %v", algs)
	}
	ords := Orderings()
	if len(ords) != 5 {
		t.Fatalf("orderings = %v", ords)
	}
	for _, s := range append(algs[:len(algs)-1], ords...) {
		if strings.Contains(s, "(") {
			t.Fatalf("unnamed enum leaked into wire names: %q", s)
		}
	}
}
