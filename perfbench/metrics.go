package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"parsample"
	"parsample/api"
	"parsample/internal/sampling"
)

// spanNames are the layer spans every traced run reports, each as
// <name>.self_ms and <name>.calls. sampling.run sums the seven
// per-sampler spans.
var spanNames = func() []string {
	names := []string{
		"api.decode", "api.normalize", "api.fingerprint", "api.estimate_cost", "api.encode_json",
		"resolve.synthesize", "resolve.ontology", "expr.build_network",
		"graph.order", "sampling.run",
	}
	for _, a := range sampling.All {
		names = append(names, "sampling."+a.String())
	}
	return append(names,
		"mcode.find_clusters", "analysis.score",
		"pipeline.resident_probe", "pipeline.do_warm", "server.roundtrip",
		"snapshot.encode", "snapshot.decode", "diskstore.put", "diskstore.get",
	)
}()

// pipelineCounts are the daemon store's counters a traced run reports.
type pipelineCounts struct {
	hits, misses, shared, evictions, sweepBatches, sweepRequests int64
}

func countsOf(st parsample.PipelineStats) pipelineCounts {
	return pipelineCounts{st.Hits, st.Misses, st.Shared, st.Evictions, st.SweepBatches, st.SweepRequests}
}

func (a pipelineCounts) minus(b pipelineCounts) pipelineCounts {
	return pipelineCounts{
		a.hits - b.hits, a.misses - b.misses, a.shared - b.shared,
		a.evictions - b.evictions, a.sweepBatches - b.sweepBatches, a.sweepRequests - b.sweepRequests,
	}
}

func share(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// layerMetrics turns a traced run into its per-layer metrics. Span times
// and counts cover every call of the run, the probe's included; the
// pipeline counters are the daemon store's over the replay alone (before
// the probe), and trace.* covers the workload's own items. Times are as
// measured, not scaled: host.reference_ms is the calibration pass's CPU
// time around the replay, against which runs on hosts of different speed
// can be compared.
func layerMetrics(tr *tracer, self []int64, pc pipelineCounts, batchRatio, steal, refMs float64) map[string]metric {
	agg := tr.aggregate(self)
	m := map[string]metric{}
	for _, n := range spanNames {
		st := agg[n]
		if st == nil {
			st = &layerStat{}
		}
		m[n+".self_ms"] = metric{float64(st.selfNs) / 1e6, "ms"}
		m[n+".calls"] = metric{float64(st.calls), "count"}
	}
	c := tr.c
	build := agg["expr.build_network"]
	if build == nil {
		build = &layerStat{}
	}
	count := func(v int64) metric { return metric{float64(v), "count"} }
	m["api.response_bytes"] = metric{share(c.responseBytes, c.responses), "bytes"}
	m["expr.pair_samples"] = count(c.pairSamples)
	m["expr.admit_ratio"] = metric{share(c.admits, c.pairs), "ratio"}
	m["expr.ns_per_pair_sample"] = metric{share(build.selfNs, c.pairSamples), "ns"}
	m["expr.batch_ratio_k4"] = metric{batchRatio, "ratio"}
	m["sampling.edges_kept_ratio"] = metric{share(c.sampledKept, c.sampledIn), "ratio"}
	m["sampling.messages"] = count(c.messages)
	m["sampling.bytes"] = metric{float64(c.bytes), "bytes"}
	m["sampling.coll_bytes"] = metric{float64(c.collBytes), "bytes"}
	m["sampling.duplicate_border_edges"] = count(c.dupBorder)
	m["sampling.restarts"] = count(c.restarts)
	m["mcode.clusters"] = count(c.clusters)
	m["snapshot.bytes"] = metric{float64(c.snapshotBytes), "bytes"}

	var items, itemNs, replayNs, roundtripNs int64
	for _, s := range tr.spans {
		if s.parent < 0 && s.item >= 0 && tr.names[s.name] == "request" {
			items++
			itemNs += s.end - s.start
		}
	}
	for _, p := range tr.pairs {
		replayNs += tr.spans[p[0]].end - tr.spans[p[0]].start
		roundtripNs += tr.spans[p[1]].end - tr.spans[p[1]].start
	}
	m["trace.requests"] = count(items)
	m["trace.replay_ms_per_req"] = metric{share(itemNs, items) / 1e6, "ms"}
	// The share of a round trip that no layer span accounts for: HTTP,
	// admission, the engine's bookkeeping.
	m["server.overhead_share"] = metric{1 - share(replayNs, roundtripNs), "ratio"}

	m["pipeline.hits"] = count(pc.hits)
	m["pipeline.misses"] = count(pc.misses)
	m["pipeline.shared"] = count(pc.shared)
	m["pipeline.evictions"] = count(pc.evictions)
	m["pipeline.sweep_batches"] = count(pc.sweepBatches)
	m["pipeline.sweep_requests"] = count(pc.sweepRequests)
	m["host.steal_pct"] = metric{steal, "%"}
	m["host.gomaxprocs"] = count(int64(runtime.GOMAXPROCS(0)))
	m["host.reference_ms"] = metric{refMs, "ms"}
	return m
}

// timeHeavy times the four CRE chordal-seq cells the dataset-cold list
// leaves out, once each through the layer replay, and prints each cell's
// total and per-layer self time.
func timeHeavy() error {
	ctx := context.Background()
	tr := newTracer()
	type cell struct {
		name string
		root int32
	}
	var cells []cell
	for _, ord := range orderings {
		body := mustJSON(&api.Request{
			Network: api.NetworkSource{Dataset: "CRE"},
			Filter:  api.FilterSpec{Algorithm: "chordal-seq", Ordering: ord, P: 1, Seed: 1},
		})
		root := tr.begin("request")
		_, err := replayRequest(ctx, tr, body)
		tr.end(root)
		if err != nil {
			return err
		}
		cells = append(cells, cell{"CRE/chordal-seq/" + ord, root})
	}
	self := selfTimes(tr.spans)
	out := map[string]map[string]float64{}
	for _, c := range cells {
		row := map[string]float64{"total_ms": float64(tr.spans[c.root].end-tr.spans[c.root].start) / 1e6}
		for i, s := range tr.spans {
			if s.root == c.root && int32(i) != c.root {
				row[tr.names[s.name]+".self_ms"] += float64(self[i]) / 1e6
			}
		}
		out[c.name] = row
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(b))
	return err
}
