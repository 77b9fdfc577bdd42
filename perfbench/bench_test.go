package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// lists returns every workload's request list for a seed.
func lists(seed int64) map[string]func(int) item {
	return map[string]func(int) item{
		"dataset-cold": datasetColdList(seed),
		"synth-cold":   synthColdList(seed),
		"warm-mix":     warmList(seed),
	}
}

// warmList is the item sequence warm-mix sends.
func warmList(seed int64) func(int) item {
	s := &warmHTTP{primed: warmPrimed(seed)}
	s.order = newRoundList(len(s.primed), seed)
	return func(i int) item { return s.primed[s.order.slot(i)] }
}

// roundLen is each list's round length.
var roundLen = map[string]int{
	"dataset-cold": len(coldCells) * coldFilterSeeds,
	"synth-cold":   synthRound,
	"warm-mix":     len(warmPrimed(1)),
}

func listBytes(gen func(int) item, n int) []byte {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		it := gen(i)
		b.WriteString(it.class)
		b.Write(it.body)
	}
	return b.Bytes()
}

func classCounts(gen func(int) item, n int) map[string]int {
	out := map[string]int{}
	for i := 0; i < n; i++ {
		out[gen(i).class]++
	}
	return out
}

func TestListsAreDeterministicAndKeepTheirMix(t *testing.T) {
	a, b, other := lists(1), lists(1), lists(2)
	for name, gen := range a {
		n := 3 * roundLen[name]
		if !bytes.Equal(listBytes(gen, n), listBytes(b[name], n)) {
			t.Errorf("%s: the same seed gave different lists", name)
		}
		if bytes.Equal(listBytes(gen, n), listBytes(other[name], n)) {
			t.Errorf("%s: seeds 1 and 2 gave the same list", name)
		}
		ca, co := classCounts(gen, n), classCounts(other[name], n)
		if len(ca) != len(co) {
			t.Errorf("%s: %d classes on seed 1, %d on seed 2", name, len(ca), len(co))
		}
		for c, k := range ca {
			if co[c] != k {
				t.Errorf("%s: class %s appears %d times on seed 1, %d on seed 2", name, c, k, co[c])
			}
		}
	}
}

func TestColdListsNeverRepeatARequest(t *testing.T) {
	for _, name := range []string{"dataset-cold", "synth-cold"} {
		gen := lists(7)[name]
		seen := map[string]bool{}
		for i := 0; i < 4*roundLen[name]; i++ {
			body := string(gen(i).body)
			if seen[body] {
				t.Fatalf("%s: item %d repeats an earlier request, so it would hit the cache", name, i)
			}
			seen[body] = true
		}
	}
}

func TestRoundWindowsKeepTheMix(t *testing.T) {
	// Any window of half a round holds each class within two blocks of its
	// expected count, so a time-bounded run sees the same mix on any seed.
	n := len(coldCells) * coldFilterSeeds
	gen := datasetColdList(3)
	perAlg := func(from, to int) map[string]int {
		out := map[string]int{}
		for i := from; i < to; i++ {
			out[gen(i).req.Filter.Algorithm]++
		}
		return out
	}
	full := perAlg(0, n)
	for start := 0; start < n; start += 17 {
		w := perAlg(start, start+n/2)
		for alg, k := range full {
			want := float64(k) / 2
			if got := float64(w[alg]); got < want-2*shuffleBlock || got > want+2*shuffleBlock {
				t.Errorf("window at %d: %s appears %v times, want about %v", start, alg, got, want)
			}
		}
	}
}

func TestPercentileLeavesTenSamplesBeyondP90(t *testing.T) {
	for n := 100; n <= 260; n += 7 {
		xs := make([]float64, n)
		for i, v := range rand.New(rand.NewSource(int64(n))).Perm(n) {
			xs[i] = float64(v)
		}
		p := percentile(xs, 90)
		beyond := 0
		for _, x := range xs {
			if x > p {
				beyond++
			}
		}
		if beyond < 10 {
			t.Errorf("n=%d: p90=%v has %d samples beyond it, want ≥ 10", n, p, beyond)
		}
		if below := n - beyond; float64(below) < 0.9*float64(n) {
			t.Errorf("n=%d: only %d samples at or below p90", n, below)
		}
	}
	if got := percentile([]float64{3, 1, 2}, 50); got != 2 {
		t.Errorf("median of 1,2,3 = %v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},   // 0: root
		{parent: 0, start: 10, end: 30},    // 1: child
		{parent: 0, start: 20, end: 50},    // 2: overlaps 1
		{parent: 0, start: 90, end: 120},   // 3: runs past the root
		{parent: 1, start: 12, end: 18},    // 4: grandchild, not the root's to subtract
		{parent: -1, start: 200, end: 210}, // 5: another root
	}
	want := []int64{50, 14, 30, 30, 6, 10}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self %d, want %d", i, got[i], want[i])
		}
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	root := tr.begin("request")
	tr.do("a", func() error { return tr.do("b", func() error { return nil }) })
	tr.end(root)
	if len(tr.spans) != 3 || tr.spans[1].parent != root || tr.spans[2].parent != 1 || tr.spans[2].root != root {
		t.Fatalf("spans not nested: %+v", tr.spans)
	}
	self := selfTimes(tr.spans)
	agg := tr.aggregate(self)
	var sum int64
	for _, s := range agg {
		sum += s.selfNs
	}
	if whole := tr.spans[root].end - tr.spans[root].start; sum != whole {
		t.Errorf("self times sum to %d, the root lasted %d", sum, whole)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the runner must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

func checkNames(t *testing.T, what string, want []struct{ Name, Unit string }, got map[string]metric) {
	t.Helper()
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("%s: BENCHMARK.json lists %s, the run did not print it", what, w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("%s: %s has unit %s, BENCHMARK.json says %s", what, w.Name, m.Unit, w.Unit)
		}
	}
	if len(got) != len(want) {
		t.Errorf("%s: the run printed %d metrics, BENCHMARK.json lists %d", what, len(got), len(want))
	}
}

// TestEveryWorkloadRunsAndChecksOut runs each workload on a tiny list,
// untraced and traced, and checks that every output checks out and the
// printed metrics are exactly those BENCHMARK.json declares.
func TestEveryWorkloadRunsAndChecksOut(t *testing.T) {
	t.Setenv("PERFBENCH_OUT", t.TempDir())
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the runner has %d", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		w, ok := findWorkload(sw.Name)
		if !ok {
			t.Errorf("BENCHMARK.json workload %s is not a runner workload", sw.Name)
			continue
		}
		if i < len(workloads) && workloads[i].name != sw.Name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the runner", i, sw.Name, workloads[i].name)
		}
		w.minItems = 8
		t.Run(w.name, func(t *testing.T) {
			res, det, err := runMeasured(w, 1, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < w.minItems {
				t.Fatalf("untraced: %+v %v", res, det.Errors)
			}
			checkNames(t, "end_to_end", spec.EndToEnd, res.Metrics)

			res, det, err = runTraced(w, 1, 0, filepath.Join(t.TempDir(), "spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced: %+v %v", res, det.Errors)
			}
			checkNames(t, "per_layer", spec.PerLayer, res.Metrics)
			for _, n := range spanNames {
				if res.Metrics[n+".calls"].Value == 0 {
					t.Errorf("traced run never called %s", n)
				}
			}
		})
	}
}
