package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"parsample/internal/graph"
	"parsample/internal/mcode"
)

// span is one timed call into a layer. Spans are recorded from one
// goroutine, so they nest: a span's parent is the innermost span open
// when it began.
type span struct {
	name, parent, root int32 // parent is -1 for a root
	item               int32 // the list item it served; -1 for the probe and artifact passes
	start, end         int64 // ns since the tracer started
}

// tracer records spans in memory (written out when the run ends) and the
// per-layer counts taken at the same boundaries.
type tracer struct {
	t0    time.Time
	spans []span
	names []string
	ids   map[string]int32
	stack []int32
	item  int32

	// pairs links a replayed request's root span to the span of the same
	// request's round trip through the system under test.
	pairs [][2]int32
	arts  []artifact
	c     counters
}

// counters are the per-layer counts of a traced run.
type counters struct {
	responses, responseBytes   int64
	pairs, pairSamples, admits int64
	sampledIn, sampledKept     int64
	messages, bytes, collBytes int64
	dupBorder, restarts        int64
	clusters                   int64
	snapshotBytes              int64
}

// artifact is one graph or cluster list kept for the snapshot pass.
type artifact struct {
	g  *graph.Graph
	cs []mcode.Cluster
}

// maxArtifacts bounds the artifacts the snapshot pass encodes.
const maxArtifacts = 8

func newTracer() *tracer {
	return &tracer{t0: time.Now(), ids: map[string]int32{}, item: -1}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int32 {
	n, ok := t.ids[name]
	if !ok {
		n = int32(len(t.names))
		t.names = append(t.names, name)
		t.ids[name] = n
	}
	id := int32(len(t.spans))
	s := span{name: n, parent: -1, root: id, item: t.item}
	if k := len(t.stack); k > 0 {
		s.parent = t.stack[k-1]
		s.root = t.spans[s.parent].root
	}
	t.stack = append(t.stack, id)
	s.start = t.now()
	t.spans = append(t.spans, s)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int32) {
	t.spans[id].end = t.now()
	if k := len(t.stack); k == 0 || t.stack[k-1] != id {
		panic(fmt.Sprintf("perfbench: span %s closed out of order", t.names[t.spans[id].name]))
	}
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func() error) error {
	id := t.begin(name)
	err := f()
	t.end(id)
	return err
}

// roundtrip sends a replayed request through the system under test in a
// span of its own and fails unless the output equals the replay's.
func (t *tracer) roundtrip(root int32, want []byte, send func() ([]byte, error)) error {
	id := t.begin("server.roundtrip")
	got, err := send()
	t.end(id)
	t.pairs = append(t.pairs, [2]int32{root, id})
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("item %d: the daemon's response differs from the layer replay's", t.item)
	}
	return nil
}

// wantArtifacts reports whether the current list item should keep its
// artifacts for the snapshot pass.
func (t *tracer) wantArtifacts() bool { return t.item >= 0 && len(t.arts) < maxArtifacts }

func (t *tracer) keep(g *graph.Graph, cs []mcode.Cluster) {
	t.arts = append(t.arts, artifact{g: g, cs: cs})
}

// selfTimes returns each span's duration minus the part of it its direct
// children cover: the union of their intervals, clipped to the span.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]int32)
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start - covered(spans, kids[int32(i)], s.start, s.end)
	}
	return self
}

// covered is the length of the union of the given spans' intervals within
// [lo, hi].
func covered(spans []span, ids []int32, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(ids))
	for _, id := range ids {
		a, b := max(spans[id].start, lo), min(spans[id].end, hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	end = lo
	for _, x := range iv {
		a := max(x[0], end)
		if x[1] > a {
			total += x[1] - a
			end = x[1]
		}
	}
	return total
}

// spansFileItems bounds the list items whose spans the spans file holds
// (all probe and artifact spans are written); the metrics aggregate every
// span.
const spansFileItems = 1000

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string, self []int64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		if s.item >= spansFileItems {
			continue
		}
		fmt.Fprintf(w, `{"id":%d,"parent":%d,"root":%d,"item":%d,"name":%q,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
			i, s.parent, s.root, s.item, t.names[s.name], s.start, s.end, self[i])
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerStat is one span name's aggregate.
type layerStat struct {
	selfNs int64
	calls  int64
}

// aggregate sums self time and calls per span name; sampling.run is the
// sum over the seven sampling.<algorithm> spans.
func (t *tracer) aggregate(self []int64) map[string]*layerStat {
	agg := map[string]*layerStat{}
	add := func(name string, ns int64) {
		st := agg[name]
		if st == nil {
			st = &layerStat{}
			agg[name] = st
		}
		st.selfNs += ns
		st.calls++
	}
	for i, s := range t.spans {
		name := t.names[s.name]
		add(name, self[i])
		if strings.HasPrefix(name, "sampling.") {
			add("sampling.run", self[i])
		}
	}
	return agg
}
