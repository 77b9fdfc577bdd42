package api

import (
	"bytes"
	"encoding/json"
	"math/bits"
	"testing"
)

// FuzzRequestNormalize drives arbitrary bytes through the request decoder
// and normalizer (ReadRequest → Normalized → Fingerprint) and checks:
//   - nothing panics;
//   - Normalized is idempotent: a normalized request re-marshalled,
//     decoded and normalized again marshals to the same bytes;
//   - Fingerprint is stable across that round trip;
//   - Fingerprint ignores the Filter, Cluster and Output specs;
//   - an accepted synthesis plants at most genes module genes;
//   - an accepted filter runs on at most MaxFilterP ranks;
//   - EstimateCost prices the raw request as its normalized form, since it
//     does not normalize itself.
//
// The seed corpus lives in testdata/fuzz/FuzzRequestNormalize.
func FuzzRequestNormalize(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := ReadRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		norm, err := req.Normalized()
		if err != nil {
			return
		}
		fp := norm.Fingerprint()
		if raw, n := EstimateCost(req), EstimateCost(norm); raw != n {
			t.Fatalf("raw request priced %+v, its normalized form %+v", raw, n)
		}
		if norm.Filter.P > MaxFilterP {
			t.Fatalf("accepted filter p %d over the cap %d", norm.Filter.P, MaxFilterP)
		}
		if ns := norm.Network.Synthesis; ns != nil {
			hi, lo := bits.Mul64(uint64(*ns.Modules), uint64(*ns.ModuleSize))
			if hi != 0 || lo > uint64(ns.Genes) {
				t.Fatalf("accepted %d modules of %d genes over %d genes", *ns.Modules, *ns.ModuleSize, ns.Genes)
			}
		}

		b1, err := json.Marshal(norm)
		if err != nil {
			t.Fatalf("marshal normalized request: %v", err)
		}
		back, err := UnmarshalRequest(b1)
		if err != nil {
			t.Fatalf("normalized request does not decode: %v\n%s", err, b1)
		}
		again, err := back.Normalized()
		if err != nil {
			t.Fatalf("normalized request fails validation: %v\n%s", err, b1)
		}
		b2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("marshal renormalized request: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("Normalized is not idempotent:\n%s\n%s", b1, b2)
		}
		if got := again.Fingerprint(); got != fp {
			t.Fatalf("fingerprint changed across a JSON round trip: %s → %s\n%s", fp, got, b1)
		}

		// Swap every run parameter for a different valid one: the data
		// identity must not move.
		minScore, minSize, vwp, fluffT, haircut := 1.5, 2, 0.35, 0.4, !*norm.Cluster.Haircut
		alt := *req
		alt.Filter = FilterSpec{Algorithm: "randomwalk-par", Ordering: "RAND", P: 2 + req.Filter.P%7, Seed: ^req.Filter.Seed}
		if req.Filter.Algorithm == "randomwalk-par" {
			alt.Filter.Algorithm = AlgorithmNone
		}
		alt.Cluster = ClusterSpec{
			MinScore: &minScore, MinSize: &minSize, VertexWeightPct: &vwp,
			Haircut: &haircut, Fluff: !req.Cluster.Fluff, FluffDensityThreshold: &fluffT,
		}
		alt.Output = OutputSpec{Edges: !req.Output.Edges}
		altNorm, err := alt.Normalized()
		if err != nil {
			t.Fatalf("changing only run parameters made the request invalid: %v", err)
		}
		if got := altNorm.Fingerprint(); got != fp {
			t.Fatalf("fingerprint depends on filter/cluster/output: %s vs %s", fp, got)
		}
	})
}
