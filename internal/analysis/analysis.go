// Package analysis implements the paper's cluster comparison methodology
// (Section IV.A): node/edge overlap between original-network clusters and
// filtered-network clusters, the AEES × overlap quadrant classification into
// TP/FP/FN/TN, per-filter sensitivity and specificity, and lost/found
// cluster detection.
package analysis

import (
	"context"
	"sort"

	"parsample/internal/graph"
	"parsample/internal/mcode"
	"parsample/internal/ontology"
)

// ScoredCluster couples an MCODE cluster with its edge-enrichment summary.
type ScoredCluster struct {
	Cluster mcode.Cluster
	Score   ontology.ClusterScore
}

// ScoreClusters annotates every cluster against the ontology using the host
// graph g for cluster-internal adjacency.
func ScoreClusters(d *ontology.DAG, a *ontology.Annotations, g *graph.Graph, clusters []mcode.Cluster) []ScoredCluster {
	out, _ := ScoreClustersContext(context.Background(), d, a, g, clusters)
	return out
}

// ScoreClustersContext is ScoreClusters with cooperative cancellation,
// polling ctx between clusters (one cluster score walks every internal edge
// pair's annotation sets — the unit of work worth bounding). One
// ontology.Scorer serves the whole call, so a term pair that recurs across
// edges and clusters is scored once.
func ScoreClustersContext(ctx context.Context, d *ontology.DAG, a *ontology.Annotations, g *graph.Graph, clusters []mcode.Cluster) ([]ScoredCluster, error) {
	out := make([]ScoredCluster, len(clusters))
	sc := ontology.NewScorer(d, a)
	for i, c := range clusters {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		out[i] = ScoredCluster{
			Cluster: c,
			Score:   sc.ScoreCluster(g.HasEdge, c.Vertices),
		}
	}
	return out, nil
}

// Overlap quantifies how much of cluster b is shared with cluster a.
type Overlap struct {
	NodeFrac float64 // |nodes(a) ∩ nodes(b)| / |nodes(b)|
	EdgeFrac float64 // |edges(a) ∩ edges(b)| / |edges(b)|
}

// NodeOverlap returns |a ∩ b| / |b| over vertex sets (0 when b is empty).
func NodeOverlap(a, b []int32) float64 {
	if len(b) == 0 {
		return 0
	}
	inA := members(a)
	n := 0
	for _, v := range b {
		if inA[v] {
			n++
		}
	}
	return float64(n) / float64(len(b))
}

// EdgeOverlap returns |E(a) ∩ E(b)| / |E(b)| where E(x) are the
// cluster-internal edges of x in its host graph (0 when b has no edges).
// It walks b's cluster edges in gb once and probes ga for each; no edge
// set is built. a and b hold distinct vertices.
func EdgeOverlap(ga *graph.Graph, a []int32, gb *graph.Graph, b []int32) float64 {
	inA, inB := members(a), members(b)
	shared, total := 0, 0
	for _, u := range b {
		for _, v := range gb.Neighbors(u) {
			if u < v && inB[v] {
				total++
				if inA[u] && inA[v] && ga.HasEdge(u, v) {
					shared++
				}
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(shared) / float64(total)
}

// members returns the vertex membership set of vs.
func members(vs []int32) map[int32]bool {
	in := make(map[int32]bool, len(vs))
	for _, v := range vs {
		in[v] = true
	}
	return in
}

// Match pairs a filtered cluster with its best-overlapping original cluster.
type Match struct {
	FilteredID int
	OriginalID int // -1 if the filtered cluster overlaps nothing (found)
	Overlap    Overlap
}

// MatchClusters computes, for every filtered cluster, the original cluster
// with the highest node overlap (ties broken by edge overlap). gOrig and
// gFilt are the host graphs used for edge overlap.
func MatchClusters(gOrig *graph.Graph, orig []ScoredCluster, gFilt *graph.Graph, filt []ScoredCluster) []Match {
	out, _ := MatchClustersContext(context.Background(), gOrig, orig, gFilt, filt)
	return out
}

// MatchClustersContext is MatchClusters with cooperative cancellation,
// polling ctx per filtered cluster (each one is compared against every
// original cluster — the quadratic unit of the match table).
func MatchClustersContext(ctx context.Context, gOrig *graph.Graph, orig []ScoredCluster, gFilt *graph.Graph, filt []ScoredCluster) ([]Match, error) {
	out := make([]Match, len(filt))
	for fi, fc := range filt {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		best := Match{FilteredID: fi, OriginalID: -1}
		for oi, oc := range orig {
			ov := Overlap{
				NodeFrac: NodeOverlap(oc.Cluster.Vertices, fc.Cluster.Vertices),
				EdgeFrac: EdgeOverlap(gOrig, oc.Cluster.Vertices, gFilt, fc.Cluster.Vertices),
			}
			if ov.NodeFrac > best.Overlap.NodeFrac ||
				(ov.NodeFrac == best.Overlap.NodeFrac && ov.EdgeFrac > best.Overlap.EdgeFrac) {
				if ov.NodeFrac > 0 || ov.EdgeFrac > 0 {
					best.OriginalID = oi
					best.Overlap = ov
				}
			}
		}
		out[fi] = best
	}
	return out, nil
}

// Quadrant is the paper's TP/FP/FN/TN classification of a filtered cluster
// by AEES (biological meaning) × overlap (rediscovery).
type Quadrant int

const (
	// TruePositive: high AEES, high overlap — meaningful and rediscovered.
	TruePositive Quadrant = iota
	// FalsePositive: low AEES, high overlap — rediscovered but meaningless
	// (dense/large but no shared function).
	FalsePositive
	// FalseNegative: high AEES, low overlap — meaningful but hidden in the
	// original (uncovered only after noise removal).
	FalseNegative
	// TrueNegative: low AEES, low overlap.
	TrueNegative
)

// String returns the conventional abbreviation.
func (q Quadrant) String() string {
	switch q {
	case TruePositive:
		return "TP"
	case FalsePositive:
		return "FP"
	case FalseNegative:
		return "FN"
	case TrueNegative:
		return "TN"
	}
	return "?"
}

// Thresholds used by the paper: overlap > 50%, AEES ≥ 3.0.
const (
	DefaultOverlapThreshold = 0.5
	DefaultAEESThreshold    = 3.0
)

// Classify assigns the quadrant given a cluster's AEES and its overlap value
// (node or edge fraction).
func Classify(aees, overlap, aeesThresh, overlapThresh float64) Quadrant {
	high := overlap > overlapThresh
	meaningful := aees >= aeesThresh
	switch {
	case meaningful && high:
		return TruePositive
	case !meaningful && high:
		return FalsePositive
	case meaningful && !high:
		return FalseNegative
	default:
		return TrueNegative
	}
}

// Counts accumulates quadrant tallies.
type Counts struct{ TP, FP, FN, TN int }

// Add increments the tally for q.
func (c *Counts) Add(q Quadrant) {
	switch q {
	case TruePositive:
		c.TP++
	case FalsePositive:
		c.FP++
	case FalseNegative:
		c.FN++
	case TrueNegative:
		c.TN++
	}
}

// Sensitivity returns TP / (TP + FN), or 0 when undefined.
func (c Counts) Sensitivity() float64 {
	if c.TP+c.FN == 0 {
		return 0
	}
	return float64(c.TP) / float64(c.TP+c.FN)
}

// Specificity returns TN / (TN + FP), or 0 when undefined.
func (c Counts) Specificity() float64 {
	if c.TN+c.FP == 0 {
		return 0
	}
	return float64(c.TN) / float64(c.TN+c.FP)
}

// OverlapKind selects which overlap measure drives the quadrant assignment.
type OverlapKind int

const (
	// ByNode classifies on node overlap.
	ByNode OverlapKind = iota
	// ByEdge classifies on edge overlap.
	ByEdge
)

func (k OverlapKind) String() string {
	if k == ByNode {
		return "node"
	}
	return "edge"
}

// QuadrantCounts classifies every matched filtered cluster and returns the
// tallies (unmatched clusters count with overlap 0).
func QuadrantCounts(filt []ScoredCluster, matches []Match, kind OverlapKind, aeesThresh, overlapThresh float64) Counts {
	var c Counts
	for _, m := range matches {
		ov := m.Overlap.NodeFrac
		if kind == ByEdge {
			ov = m.Overlap.EdgeFrac
		}
		c.Add(Classify(filt[m.FilteredID].Score.AEES, ov, aeesThresh, overlapThresh))
	}
	return c
}

// LostFound separates clusters into lost (original clusters no filtered
// cluster overlaps) and found (filtered clusters overlapping no original).
type LostFound struct {
	Lost  []int // original cluster ids
	Found []int // filtered cluster ids
}

// FindLostFound computes the lost/found sets from the match table.
func FindLostFound(numOrig int, matches []Match) LostFound {
	coveredOrig := make(map[int]bool, numOrig)
	var lf LostFound
	for _, m := range matches {
		if m.OriginalID < 0 {
			lf.Found = append(lf.Found, m.FilteredID)
		} else if m.Overlap.NodeFrac > 0 {
			coveredOrig[m.OriginalID] = true
		}
	}
	for oi := 0; oi < numOrig; oi++ {
		if !coveredOrig[oi] {
			lf.Lost = append(lf.Lost, oi)
		}
	}
	sort.Ints(lf.Lost)
	sort.Ints(lf.Found)
	return lf
}

// ModuleRecovery reports how well a cluster set covers the planted ground
// truth: the fraction of modules for which some cluster has node overlap
// ≥ thresh (overlap measured against the module).
func ModuleRecovery(modules [][]int32, clusters []mcode.Cluster, thresh float64) float64 {
	if len(modules) == 0 {
		return 0
	}
	hit := 0
	for _, mod := range modules {
		for _, c := range clusters {
			if NodeOverlap(c.Vertices, mod) >= thresh {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(modules))
}
