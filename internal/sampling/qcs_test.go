package sampling

import (
	"testing"

	"parsample/internal/chordal"
	"parsample/internal/graph"
)

// The paper (Section III.A) observes that the communication-free triangle
// rule "leads to fewer larger cycles" than the earlier communicating
// algorithm, because border-edge pairs are admitted only when a triangle
// closes them. FillInCount quantifies distance-from-chordality: the
// quasi-chordal output of the no-comm variant must be far closer to chordal
// than both the comm variant's output and the original network.
func TestQuasiChordalFewerLargeCycles(t *testing.T) {
	g := graph.Gnm(600, 2000, 5)
	origFill := chordal.FillInCount(g)
	if origFill == 0 {
		t.Fatal("test graph should be far from chordal")
	}
	for _, p := range []int{4, 8, 16} {
		nc := mustRun(t, ChordalNoComm, g, Options{P: p})
		cm := mustRun(t, ChordalComm, g, Options{P: p})
		ncFill := chordal.FillInCount(nc.Graph(g.N()))
		cmFill := chordal.FillInCount(cm.Graph(g.N()))
		if ncFill >= cmFill {
			t.Fatalf("P=%d: no-comm fill-in %d not below comm fill-in %d", p, ncFill, cmFill)
		}
		if cmFill >= origFill {
			t.Fatalf("P=%d: comm fill-in %d not below original %d", p, cmFill, origFill)
		}
		// The no-comm output should be nearly chordal: tiny fill-in
		// relative to its own edge count.
		if ncFill > nc.Subgraph.M() {
			t.Fatalf("P=%d: no-comm fill-in %d exceeds its edge count %d", p, ncFill, nc.Subgraph.M())
		}
	}
}

// At P=1 both parallel variants are exactly chordal.
func TestParallelVariantsChordalAtP1(t *testing.T) {
	g := graph.Gnm(300, 900, 8)
	for _, alg := range []Algorithm{ChordalNoComm, ChordalComm} {
		res := mustRun(t, alg, g, Options{P: 1})
		if chordal.FillInCount(res.Graph(g.N())) != 0 {
			t.Fatalf("%v at P=1 is not chordal", alg)
		}
	}
}
