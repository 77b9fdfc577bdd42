package snapshot

import (
	"fmt"

	"parsample/internal/analysis"
	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/sampling"
)

// ------------------------------------------------------------------ graphs

// EncodeGraph snapshots a CSR graph as its raw arenas — the decoded form
// adopts them without a Builder pass (graph.FromCSRArenas).
func EncodeGraph(g *graph.Graph) []byte {
	var e enc
	putGraph(&e, g)
	return finish(TypeGraph, e.buf)
}

// DecodeGraph reconstructs a snapshotted graph. On little-endian hosts the
// arenas alias data — keep the buffer (or mapping) alive for the graph's
// lifetime and never modify it.
func DecodeGraph(data []byte) (*graph.Graph, error) {
	d, err := open(data, TypeGraph)
	if err != nil {
		return nil, err
	}
	g := getGraph(d)
	if err := d.done(); err != nil {
		return nil, err
	}
	return g, nil
}

func putGraph(e *enc, g *graph.Graph) {
	off, nbr := g.CSR()
	e.u64(uint64(g.N()))
	e.u64(uint64(g.M()))
	e.i32s(off)
	e.i32s(nbr)
}

func getGraph(d *dec) *graph.Graph {
	n := d.u64()
	m := d.u64()
	off := d.i32s()
	nbr := d.i32s()
	if d.err != nil {
		return nil
	}
	if n > 0 && uint64(len(off)) != n+1 {
		d.fail("offset arena does not match vertex count")
		return nil
	}
	g, err := graph.FromCSRArenas(off, nbr)
	if err != nil {
		d.fail(err.Error())
		return nil
	}
	if uint64(g.N()) != n || uint64(g.M()) != m {
		d.fail("graph dimensions do not match header")
		return nil
	}
	return g
}

// ------------------------------------------------------------------ orders

// EncodeOrder snapshots a vertex processing order.
func EncodeOrder(ord []int32) []byte {
	var e enc
	e.i32s(ord)
	return finish(TypeOrder, e.buf)
}

// DecodeOrder reconstructs a snapshotted vertex order (aliasing data on
// little-endian hosts, like DecodeGraph).
func DecodeOrder(data []byte) ([]int32, error) {
	d, err := open(data, TypeOrder)
	if err != nil {
		return nil, err
	}
	ord := d.i32s()
	if err := d.done(); err != nil {
		return nil, err
	}
	return ord, nil
}

// ---------------------------------------------------------------- clusters

// EncodeClusters snapshots an MCODE cluster set.
func EncodeClusters(cs []mcode.Cluster) []byte {
	var e enc
	putClusters(&e, cs)
	return finish(TypeClusters, e.buf)
}

// DecodeClusters reconstructs a snapshotted cluster set.
func DecodeClusters(data []byte) ([]mcode.Cluster, error) {
	d, err := open(data, TypeClusters)
	if err != nil {
		return nil, err
	}
	cs := getClusters(d)
	if err := d.done(); err != nil {
		return nil, err
	}
	return cs, nil
}

// clusterMinLen is the encoded floor of one cluster (five scalar words plus
// an empty vertex array), used to bound count allocations.
const clusterMinLen = 6 * 8

func putClusters(e *enc, cs []mcode.Cluster) {
	e.u64(uint64(len(cs)))
	for i := range cs {
		c := &cs[i]
		e.i64(int64(c.ID))
		e.i64(int64(c.Seed))
		e.i64(int64(c.Edges))
		e.f64(c.Density)
		e.f64(c.Score)
		e.i32s(c.Vertices)
	}
}

func getClusters(d *dec) []mcode.Cluster {
	n := d.count(clusterMinLen)
	if d.err != nil || n == 0 {
		return nil
	}
	cs := make([]mcode.Cluster, n)
	for i := range cs {
		cs[i].ID = int(d.i64())
		cs[i].Seed = int32(d.i64())
		cs[i].Edges = int(d.i64())
		cs[i].Density = d.f64()
		cs[i].Score = d.f64()
		cs[i].Vertices = d.i32s()
		if d.err != nil {
			return nil
		}
	}
	return cs
}

// ------------------------------------------------------------------ scores

// EncodeScored snapshots an ontology-scored cluster set.
func EncodeScored(sc []analysis.ScoredCluster) []byte {
	var e enc
	e.u64(uint64(len(sc)))
	for i := range sc {
		s := &sc[i]
		e.i64(int64(s.Cluster.ID))
		e.i64(int64(s.Cluster.Seed))
		e.i64(int64(s.Cluster.Edges))
		e.f64(s.Cluster.Density)
		e.f64(s.Cluster.Score)
		e.i32s(s.Cluster.Vertices)
		e.f64(s.Score.AEES)
		e.i64(int64(s.Score.MaxEdgeScore))
		e.i64(int64(s.Score.DominantTerm))
		e.i64(int64(s.Score.DominantCount))
		e.i64(int64(s.Score.Edges))
	}
	return finish(TypeScored, e.buf)
}

// DecodeScored reconstructs a snapshotted scored-cluster set.
func DecodeScored(data []byte) ([]analysis.ScoredCluster, error) {
	d, err := open(data, TypeScored)
	if err != nil {
		return nil, err
	}
	n := d.count(clusterMinLen + 5*8)
	sc := make([]analysis.ScoredCluster, n)
	for i := range sc {
		s := &sc[i]
		s.Cluster.ID = int(d.i64())
		s.Cluster.Seed = int32(d.i64())
		s.Cluster.Edges = int(d.i64())
		s.Cluster.Density = d.f64()
		s.Cluster.Score = d.f64()
		s.Cluster.Vertices = d.i32s()
		s.Score.AEES = d.f64()
		s.Score.MaxEdgeScore = int(d.i64())
		s.Score.DominantTerm = int32(d.i64())
		s.Score.DominantCount = int(d.i64())
		s.Score.Edges = int(d.i64())
		if d.err != nil {
			break
		}
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	return sc, nil
}

// ----------------------------------------------------------------- matches

// EncodeMatches snapshots an original-vs-filtered match table.
func EncodeMatches(ms []analysis.Match) []byte {
	var e enc
	e.u64(uint64(len(ms)))
	for i := range ms {
		e.i64(int64(ms[i].FilteredID))
		e.i64(int64(ms[i].OriginalID))
		e.f64(ms[i].Overlap.NodeFrac)
		e.f64(ms[i].Overlap.EdgeFrac)
	}
	return finish(TypeMatches, e.buf)
}

// DecodeMatches reconstructs a snapshotted match table.
func DecodeMatches(data []byte) ([]analysis.Match, error) {
	d, err := open(data, TypeMatches)
	if err != nil {
		return nil, err
	}
	n := d.count(4 * 8)
	ms := make([]analysis.Match, n)
	for i := range ms {
		ms[i].FilteredID = int(d.i64())
		ms[i].OriginalID = int(d.i64())
		ms[i].Overlap.NodeFrac = d.f64()
		ms[i].Overlap.EdgeFrac = d.f64()
	}
	if err := d.done(); err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	return ms, nil
}

// ---------------------------------------------------------------- filtered

// EncodeFiltered snapshots a Filter-stage artifact: the sampling
// telemetry plus the sampled subgraph.
func EncodeFiltered(r *sampling.Result) []byte {
	var e enc
	e.i64(int64(r.Algorithm))
	e.i64(int64(r.BorderEdges))
	e.i64(int64(r.DuplicateBorderEdges))
	e.i64(int64(r.Stats.P))
	e.i64(r.Stats.Messages)
	e.i64(r.Stats.Bytes)
	e.i64(r.Stats.CollMessages)
	e.i64(r.Stats.CollBytes)
	e.i64(r.Stats.SerialOps)
	e.i64(r.Stats.Restarts)
	e.i64s(r.Stats.RankOps)
	e.f64s(r.Stats.RankSeconds)
	putGraph(&e, r.Subgraph)
	return finish(TypeFiltered, e.buf)
}

// DecodeFiltered reconstructs a snapshotted Filter-stage artifact.
func DecodeFiltered(data []byte) (*sampling.Result, error) {
	d, err := open(data, TypeFiltered)
	if err != nil {
		return nil, err
	}
	r := &sampling.Result{}
	r.Algorithm = sampling.Algorithm(d.i64())
	r.BorderEdges = int(d.i64())
	r.DuplicateBorderEdges = int(d.i64())
	r.Stats.P = int(d.i64())
	r.Stats.Messages = d.i64()
	r.Stats.Bytes = d.i64()
	r.Stats.CollMessages = d.i64()
	r.Stats.CollBytes = d.i64()
	r.Stats.SerialOps = d.i64()
	r.Stats.Restarts = d.i64()
	r.Stats.RankOps = d.i64s()
	r.Stats.RankSeconds = d.f64s()
	r.Subgraph = getGraph(d)
	if err := d.done(); err != nil {
		return nil, err
	}
	if r.Subgraph == nil {
		return nil, fmt.Errorf("%w: filtered snapshot without a subgraph", ErrCorrupt)
	}
	return r, nil
}
