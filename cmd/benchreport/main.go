// Command benchreport emits the machine-readable perf snapshot for this
// revision (BENCH_*.json): the correlation front end on the two reference
// matrix shapes, the batched-sweep overhead ratio,
// the HTTP serving tier cold vs warm, the snapshot codec, and the
// warm-restart path (a fresh process serving the 4096×100 reference request
// from disk snapshots instead of recomputing — acceptance: ≥ 10× faster
// than the cold recompute), and the distributed sampling tier: the four
// parallel samplers run for real across loopback worker processes at
// P ∈ {1,2,4,8}, with measured wall-clock speedup next to the calibrated
// cost model's prediction and the per-point model error (acceptance: every
// distributed edge set is byte-identical to the simulator's). CI runs it on
// every push so the perf trajectory is comparable PR-over-PR; the
// checked-in BENCH_10.json is the snapshot from the revision that
// introduced the TCP transport tier.
//
//	go run ./cmd/benchreport -o BENCH_10.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"testing"

	"parsample"
	"parsample/internal/experiments"
	"parsample/internal/expr"
	"parsample/internal/server"
	"parsample/internal/snapshot"
	"parsample/internal/transport"
)

// report is the BENCH_*.json schema. NsPerOp keys are stable across PRs;
// new revisions add keys, never rename them.
type report struct {
	ID        string             `json:"id"`
	Go        string             `json:"go"`
	GOOS      string             `json:"goos"`
	GOARCH    string             `json:"goarch"`
	KernelISA string             `json:"kernel_isa"`
	NsPerOp   map[string]float64 `json:"ns_per_op"`
	// BatchedSweepRatioK4 is batched(k=4 specs) / single-spec wall time on
	// 2048×64: what bucketing four rules out of one sweep under the
	// loosest of them costs over one rule (acceptance: <1.3).
	BatchedSweepRatioK4 float64 `json:"batched_sweep_ratio_k4"`
	// WarmRestartSpeedup is cold-recompute / warm-restart-from-disk wall
	// time for the 4096×100 reference request served by a fresh process
	// (acceptance: ≥ 10).
	WarmRestartSpeedup float64 `json:"warm_restart_speedup"`
	// DistModel is the loopback-calibrated cost model the distributed
	// predictions were made with (seconds per op / per-message overhead /
	// per byte) — machine-dependent, recorded so the predictions are
	// reproducible.
	DistModel map[string]float64 `json:"dist_model"`
	// Distributed is the measured Figure-10: per parallel sampler, the
	// loopback cluster's wall-clock speedup at each rank count next to the
	// cost model's prediction. Match is asserted (the run fails on a
	// mismatch), so every point here is from a byte-identical edge set.
	Distributed map[string][]distPoint `json:"distributed"`
}

// distPoint is one measured-vs-modeled point of the distributed study.
type distPoint struct {
	P               int     `json:"p"`
	MeasuredSeconds float64 `json:"measured_seconds"`
	ModeledSeconds  float64 `json:"modeled_seconds"`
	MeasuredSpeedup float64 `json:"measured_speedup"`
	ModeledSpeedup  float64 `json:"modeled_speedup"`
	Efficiency      float64 `json:"efficiency"`
	ModelErrorPct   float64 `json:"model_error_pct"`
	EdgesKept       int     `json:"edges_kept"`
}

// serverBody mirrors the serving tier's bench request: a synthesized matrix
// with planted modules so every pipeline stage runs.
const serverBody = `{
	"network": {"synthesis": {"genes": 192, "samples": 24, "modules": 4, "moduleSize": 8, "seed": 7}},
	"filter": {"algorithm": "chordal-nocomm", "ordering": "HD", "p": 4, "seed": 3}
}`

func main() {
	out := flag.String("o", "BENCH_10.json", "output path ('-' for stdout)")
	flag.Parse()
	ctx := context.Background()

	r := report{
		ID:        "BENCH_10",
		Go:        runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		KernelISA: expr.KernelISA(),
		NsPerOp:   map[string]float64{},
	}

	for _, shape := range []struct{ genes, samples int }{{2048, 64}, {4096, 100}} {
		syn, err := expr.Synthesize(expr.SyntheticSpec{
			Genes: shape.genes, Samples: shape.samples,
			Modules: 16, ModuleSize: 12, Noise: 0.1, Seed: 1,
		})
		if err != nil {
			log.Fatal(err)
		}
		opts := expr.DefaultNetworkOptions()
		name := fmt.Sprintf("build_network/pearson/%dx%d", shape.genes, shape.samples)
		r.NsPerOp[name] = nsPerOp(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				g, err := expr.BuildNetworkContext(b.Context(), syn.M, opts)
				if err != nil {
					b.Fatal(err)
				}
				if g.M() == 0 {
					b.Fatal("empty network")
				}
			}
		})
		if shape.genes == 2048 {
			single, batched := batchedSweep(syn)
			r.NsPerOp["batched_sweep/2048x64/k=1"] = single
			r.NsPerOp["batched_sweep/2048x64/k=4"] = batched
			r.BatchedSweepRatioK4 = batched / single

			enc, dec := snapshotCodec(ctx, syn)
			r.NsPerOp["snapshot/encode_graph/2048x64"] = enc
			r.NsPerOp["snapshot/decode_graph/2048x64"] = dec
		}
	}

	cold, warm := serverColdWarm()
	r.NsPerOp["server/pipeline/cold"] = cold
	r.NsPerOp["server/pipeline/warm"] = warm

	coldBig, diskBig := warmRestart()
	r.NsPerOp["server/pipeline/cold_recompute/4096x100"] = coldBig
	r.NsPerOp["server/pipeline/warm_restart_disk/4096x100"] = diskBig
	r.WarmRestartSpeedup = coldBig / diskBig

	distModel, dist := distributedStudy()
	r.DistModel = distModel
	r.Distributed = dist

	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%s, %s)\n", *out, r.KernelISA, r.Go)
}

// distributedStudy runs the measured Figure-10: in-process loopback
// workers host the non-zero ranks, the coordinator runs rank 0, and every
// distributed edge set is checked byte-identical against the simulator's
// before a point is recorded.
func distributedStudy() (map[string]float64, map[string][]distPoint) {
	n := 0
	for _, p := range experiments.DistProcessors {
		if p-1 > n {
			n = p - 1
		}
	}
	addrs, stop, err := experiments.StartLocalWorkers(n)
	if err != nil {
		log.Fatal(err)
	}
	defer stop()
	cl, err := transport.Dial("127.0.0.1:0", addrs)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	rows, model, err := experiments.FigDist(context.Background(), cl, experiments.DistGraph(), experiments.DistProcessors)
	if err != nil {
		log.Fatal(err)
	}
	dist := map[string][]distPoint{}
	for _, row := range rows {
		dist[row.Algorithm] = append(dist[row.Algorithm], distPoint{
			P:               row.P,
			MeasuredSeconds: row.MeasuredSeconds,
			ModeledSeconds:  row.ModeledSeconds,
			MeasuredSpeedup: row.MeasuredSpeedup,
			ModeledSpeedup:  row.ModeledSpeedup,
			Efficiency:      row.Efficiency,
			ModelErrorPct:   row.ModelErrorPct,
			EdgesKept:       row.EdgesKept,
		})
	}
	return map[string]float64{
		"seconds_per_op":   model.SecondsPerOp,
		"overhead_seconds": model.OverheadSeconds,
		"seconds_per_byte": model.SecondsPerByte,
	}, dist
}

// benchServer boots the serving tier with an effectively unmetered
// admission gate: these benches measure pipeline serving latency, and at
// benchmark iteration counts the per-client fair-share limiter would
// otherwise 429 the loop.
func benchServer(p *parsample.Pipeline) *httptest.Server {
	return httptest.NewServer(server.New(server.Config{
		Pipeline:         p,
		CapacityUnits:    1e12,
		ClientRateUnits:  1e12,
		ClientBurstUnits: 1e12,
	}))
}

// nsPerOp runs f under the testing benchmark driver and returns its ns/op.
func nsPerOp(f func(b *testing.B)) float64 {
	res := testing.Benchmark(f)
	if res.N == 0 {
		log.Fatal("benchmark failed (zero iterations)")
	}
	return float64(res.NsPerOp())
}

// batchedSweep times one batched pass over k=4 admission specs against the
// single-spec pass it generalizes, on the 2048×64 matrix.
func batchedSweep(syn *expr.SyntheticResult) (single, batched float64) {
	base := expr.DefaultNetworkOptions()
	specs := []expr.SweepSpec{
		{MinAbsR: 0.95, MaxP: 0.0005},
		{MinAbsR: 0.90, MaxP: 0.001},
		{MinAbsR: 0.85, MaxP: 0.005},
		{MinAbsR: 0.80, MaxP: 0.01, Negative: true},
	}
	run := func(k int) float64 {
		return nsPerOp(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				gs, err := expr.BatchBuildNetworksContext(context.Background(), syn.M, base, specs[:k])
				if err != nil {
					b.Fatal(err)
				}
				if gs[0].M() == 0 {
					b.Fatal("empty network")
				}
			}
		})
	}
	return run(1), run(4)
}

// snapshotCodec times the disk tier's CSR graph codec on the 2048×64
// reference network: encode is what the write-behind goroutine pays per
// spill, decode is the integrity-verified load a warm restart pays instead
// of a kernel.
func snapshotCodec(ctx context.Context, syn *expr.SyntheticResult) (encNs, decNs float64) {
	g, err := expr.BuildNetworkContext(ctx, syn.M, expr.DefaultNetworkOptions())
	if err != nil {
		log.Fatal(err)
	}
	if g.M() == 0 {
		log.Fatal("empty network for snapshot codec bench")
	}
	blob := snapshot.EncodeGraph(g)
	encNs = nsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(snapshot.EncodeGraph(g)) == 0 {
				b.Fatal("empty snapshot")
			}
		}
	})
	decNs = nsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := snapshot.DecodeGraph(blob); err != nil {
				b.Fatal(err)
			}
		}
	})
	return encNs, decNs
}

// restartBody is the warm-restart reference request: the 4096×100 synthesis
// shape from the kernel benches, driven through the full serving tier.
const restartBody = `{
	"network": {"synthesis": {"genes": 4096, "samples": 100, "modules": 16, "moduleSize": 12, "seed": 1}},
	"filter": {"algorithm": "chordal-nocomm", "ordering": "HD", "p": 4, "seed": 3}
}`

// warmRestart measures the tentpole: cold boots a fresh pipeline per request
// with no cache directory (every kernel runs), restart boots a fresh
// pipeline per request over a primed cache directory (every stage loads from
// verified snapshots). Each restart response is checked to actually come
// from the disk tier and to be byte-identical to the cold one.
func warmRestart() (coldNs, diskNs float64) {
	dir, err := os.MkdirTemp("", "benchreport-cache-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	fire := func(b *testing.B, url, wantCache string) []byte {
		resp, err := http.Post(url+"/v1/pipeline", "application/json", strings.NewReader(restartBody))
		if err != nil {
			b.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		if c := resp.Header.Get(server.CacheHeader); wantCache != "" && c != wantCache {
			b.Fatalf("cache header %q, want %q", c, wantCache)
		}
		return body
	}

	var coldBody []byte
	coldNs = nsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := parsample.New()
			ts := benchServer(p)
			b.StartTimer()
			coldBody = fire(b, ts.URL, "miss")
			b.StopTimer()
			ts.Close()
			p.Close()
			b.StartTimer()
		}
	})

	// Prime the cache directory once; Close drains the write-behind queue so
	// every artifact is published before the restart timings start.
	prime := parsample.New(parsample.WithCacheDir(dir))
	tsP := benchServer(prime)
	resp, err := http.Post(tsP.URL+"/v1/pipeline", "application/json", strings.NewReader(restartBody))
	if err != nil {
		log.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("prime status %d", resp.StatusCode)
	}
	tsP.Close()
	prime.Close()

	diskNs = nsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p := parsample.New(parsample.WithCacheDir(dir))
			ts := benchServer(p)
			b.StartTimer()
			body := fire(b, ts.URL, "disk")
			b.StopTimer()
			if !bytes.Equal(body, coldBody) {
				b.Fatal("warm-restart response differs from cold bytes")
			}
			ts.Close()
			p.Close()
			b.StartTimer()
		}
	})
	return coldNs, diskNs
}

// serverColdWarm measures the HTTP serving tier end to end: cold boots a
// fresh pipeline per request (every stage computes), warm reuses one
// pipeline so every stage is an artifact-store hit.
func serverColdWarm() (cold, warm float64) {
	post := func(b *testing.B, url string) {
		resp, err := http.Post(url+"/v1/pipeline", "application/json", strings.NewReader(serverBody))
		if err != nil {
			b.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
	cold = nsPerOp(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			ts := benchServer(parsample.New())
			b.StartTimer()
			post(b, ts.URL)
			b.StopTimer()
			ts.Close()
			b.StartTimer()
		}
	})
	warm = nsPerOp(func(b *testing.B) {
		ts := benchServer(parsample.New())
		defer ts.Close()
		post(b, ts.URL) // prime the artifact store outside the timer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			post(b, ts.URL)
		}
	})
	return cold, warm
}
