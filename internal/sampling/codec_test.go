package sampling

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"parsample/internal/comm"
	"parsample/internal/graph"
	"parsample/internal/mpisim"
)

// edgePayload lays out a [count][u,v]* edge vector after prefix.
func edgePayload(prefix []byte, edges ...graph.Edge) []byte {
	return appendEdges(prefix, edges)
}

// restartsPrefix is the rankResult header: the restart count.
func restartsPrefix(restarts int64) []byte {
	return binary.LittleEndian.AppendUint64(nil, uint64(restarts))
}

// Regression: a gathered partial result naming a vertex beyond the graph
// decoded cleanly and then panicked the merge on the coordinator
// ("index out of range"). The merge must report it as an error instead.
func TestMergeRejectsEdgeOutsideGraph(t *testing.T) {
	const n = 64
	v, err := comm.DecodePayload(kindRankResult, edgePayload(restartsPrefix(0), graph.Edge{U: 0, V: n}))
	if err != nil {
		t.Fatalf("a normalized, ascending payload must decode (the universe is checked at the merge): %v", err)
	}
	res, err := mergeRanks(ChordalNoComm, n, []rankResult{v.(rankResult)}, 0, mpisim.NewComm(1))
	if err == nil || !strings.Contains(err.Error(), "outside the 64-vertex graph") {
		t.Fatalf("merge of edge (0,%d) over %d vertices: res=%v err=%v, want an out-of-graph error", n, n, res, err)
	}
}

func TestPayloadDecodersRejectMalformedEdges(t *testing.T) {
	e := func(u, v int32) graph.Edge { return graph.Edge{U: u, V: v} }
	for _, tc := range []struct {
		name string
		kind uint16
		data []byte
	}{
		{"rank negative endpoint", kindRankResult, edgePayload(restartsPrefix(0), e(-1, 3))},
		{"rank self loop", kindRankResult, edgePayload(restartsPrefix(0), e(2, 2))},
		{"rank reversed edge", kindRankResult, edgePayload(restartsPrefix(0), e(5, 3))},
		{"rank descending list", kindRankResult, edgePayload(restartsPrefix(0), e(1, 4), e(0, 9))},
		{"rank duplicate edge", kindRankResult, edgePayload(restartsPrefix(0), e(1, 4), e(1, 4))},
		{"rank short header", kindRankResult, []byte{1, 2, 3}},
		{"rank truncated vector", kindRankResult, edgePayload(restartsPrefix(0), e(1, 4))[:15]},
		{"rank trailing bytes", kindRankResult, append(edgePayload(restartsPrefix(0), e(1, 4)), 0)},
		{"border negative endpoint", kindBorderMsg, edgePayload(nil, e(-7, 3))},
		{"border self loop", kindBorderMsg, edgePayload(nil, e(4, 4))},
		{"border reversed edge", kindBorderMsg, edgePayload(nil, e(9, 3))},
		{"border count beyond data", kindBorderMsg, binary.LittleEndian.AppendUint32(nil, 1<<30)},
	} {
		if v, err := comm.DecodePayload(tc.kind, tc.data); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", tc.name, v)
		}
	}
	// Border chunks carry semantic order, so a descending chunk is valid.
	if _, err := comm.DecodePayload(kindBorderMsg, edgePayload(nil, e(3, 9), e(1, 2))); err != nil {
		t.Errorf("descending border chunk: %v", err)
	}
}

// tamperComm runs a real communicator but passes every message a rank
// receives through tamper, and every gather rank 0 receives through
// gather, first (either may be nil): a stand-in for a remote rank sending
// well-formed but hostile payloads.
type tamperComm struct {
	comm.Comm
	tamper func(comm.Message) comm.Message
	gather func(vals []any)
}

func (c tamperComm) Run(fn func(comm.Rank)) error {
	return c.Comm.Run(func(r comm.Rank) { fn(tamperRank{r, c}) })
}

type tamperRank struct {
	comm.Rank
	c tamperComm
}

func (r tamperRank) AnyRecv(sources []int) comm.Message {
	m := r.Rank.AnyRecv(sources)
	if r.c.tamper != nil {
		m = r.c.tamper(m)
	}
	return m
}

func (r tamperRank) Gatherv(payload any, size int) []any {
	vals := r.Rank.Gatherv(payload, size)
	if vals != nil && r.c.gather != nil {
		r.c.gather(vals)
	}
	return vals
}

// A payload of the wrong type — well formed, since it decodes through a
// registered codec, but not what the site expects — must fail the job
// with a named error at both sites that type-assert on a received
// payload, instead of panicking the rank. On TCP, rank 0 runs inside the
// coordinator process, so such a panic would kill it.
func TestWrongPayloadTypeFailsJob(t *testing.T) {
	g := graph.Gnm(40, 160, 1)
	for _, tc := range []struct {
		name string
		alg  Algorithm
		cm   tamperComm
		want string
	}{
		{"border chunk that is a partial result", ChordalComm, tamperComm{Comm: mpisim.NewComm(2),
			tamper: func(m comm.Message) comm.Message { m.Payload = rankResult{}; return m }},
			"want a border chunk"},
		{"gathered partial result that is a border chunk", ChordalNoComm, tamperComm{Comm: mpisim.NewComm(2),
			gather: func(vals []any) { vals[1] = borderMsg{} }},
			"want a partial result"},
	} {
		res, err := RunContext(t.Context(), tc.alg, g, Options{P: 2, Comm: tc.cm})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: res=%v err=%v, want an error containing %q", tc.name, res, err, tc.want)
		}
	}
}

// The chordal-comm receiver indexes its partition table by the endpoints
// of every incoming border edge. An edge that names a vertex outside the
// graph, or that does not join the receiver to the sender, must fail the
// job with an error rather than panic the rank.
func TestChordalCommRejectsHostileBorderEdges(t *testing.T) {
	g := graph.Gnm(40, 160, 1)
	n := int32(g.N())
	for _, bad := range []graph.Edge{
		{U: 0, V: n + 5},       // beyond the graph
		{U: -3, V: n - 1},      // negative endpoint
		{U: n + 1, V: 1 << 30}, // neither endpoint exists
		{U: n / 2, V: n/2 + 1}, // both endpoints on the receiver
		{U: 0, V: 1},           // both endpoints on the sender
	} {
		tampered := false
		cm := tamperComm{Comm: mpisim.NewComm(2), tamper: func(m comm.Message) comm.Message {
			if bm, ok := m.Payload.(borderMsg); ok && len(bm.edges) > 0 {
				edges := append([]graph.Edge{bad}, bm.edges[1:]...)
				m.Payload = borderMsg{edges: edges}
				tampered = true
			}
			return m
		}}
		res, err := RunContext(t.Context(), ChordalComm, g, Options{P: 2, Comm: cm})
		if !tampered {
			t.Fatal("no border chunk reached the receiver; pick a graph with border edges")
		}
		if err == nil || !strings.Contains(err.Error(), "border edge") {
			t.Errorf("hostile border edge %v: res=%v err=%v, want a border-edge error", bad, res, err)
		}
	}
}

// checkCodecRoundTrip is the property both fuzz targets share: decoding
// never panics, and an accepted payload re-encodes to exactly its bytes.
func checkCodecRoundTrip(t *testing.T, kind uint16, data []byte) (any, bool) {
	v, err := comm.DecodePayload(kind, data)
	if err != nil {
		return nil, false
	}
	gotKind, enc, err := comm.EncodePayload(v)
	if err != nil || gotKind != kind {
		t.Fatalf("re-encode of an accepted payload: kind %d, err %v", gotKind, err)
	}
	if !bytes.Equal(enc, data) {
		t.Fatalf("accepted payload re-encodes to different bytes:\n got %x\nwant %x", enc, data)
	}
	return v, true
}

// The seed corpora live in testdata/fuzz/<target>: valid payloads plus one
// of each rejected shape.
func FuzzRankResultCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		v, ok := checkCodecRoundTrip(t, kindRankResult, data)
		if !ok {
			return
		}
		edges := v.(rankResult).edges
		for i, e := range edges {
			if e.U < 0 || e.U >= e.V {
				t.Fatalf("accepted edge %d (%d,%d) is not normalized", i, e.U, e.V)
			}
			if i > 0 && graph.CompareEdges(edges[i-1], e) >= 0 {
				t.Fatalf("accepted edges %d and %d are not strictly ascending", i-1, i)
			}
		}
	})
}

func FuzzBorderMsgCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		v, ok := checkCodecRoundTrip(t, kindBorderMsg, data)
		if !ok {
			return
		}
		for i, e := range v.(borderMsg).edges {
			if e.U < 0 || e.U >= e.V {
				t.Fatalf("accepted edge %d (%d,%d) is not normalized", i, e.U, e.V)
			}
		}
	})
}
