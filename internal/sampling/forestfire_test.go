package sampling

import (
	"testing"

	"parsample/internal/graph"
)

func TestForestFireSubsetAndSize(t *testing.T) {
	g := graph.Gnm(300, 1200, 9)
	res := mustRun(t, ForestFireSeq, g, Options{Seed: 3})
	if res.Subgraph.M() == 0 {
		t.Fatal("forest fire selected nothing")
	}
	if res.Subgraph.M() > g.M()/2 {
		t.Fatalf("selected %d > M/2 = %d", res.Subgraph.M(), g.M()/2)
	}
	res.Subgraph.ForEachEdge(func(u, v int32) {
		if !g.HasEdge(u, v) {
			t.Fatal("selected non-existent edge")
		}
	})
}

func TestForestFireDeterministicPerSeed(t *testing.T) {
	g := graph.Gnm(150, 500, 2)
	a := mustRun(t, ForestFireSeq, g, Options{Seed: 5})
	b := mustRun(t, ForestFireSeq, g, Options{Seed: 5})
	if a.Subgraph.M() != b.Subgraph.M() {
		t.Fatal("not deterministic")
	}
	a.Subgraph.ForEachEdge(func(u, v int32) {
		if !b.Subgraph.HasEdge(u, v) {
			t.Fatal("edge sets differ for same seed")
		}
	})
}

func TestForestFireEmptyAndEdgeless(t *testing.T) {
	res := mustRun(t, ForestFireSeq, graph.FromEdges(0, nil), Options{})
	if res.Subgraph.M() != 0 {
		t.Fatal("empty graph should select nothing")
	}
	res = mustRun(t, ForestFireSeq, graph.FromEdges(10, nil), Options{})
	if res.Subgraph.M() != 0 {
		t.Fatal("edgeless graph should select nothing")
	}
}

func TestForestFireParallelNoMessages(t *testing.T) {
	g := graph.Gnm(400, 1600, 4)
	res := mustRun(t, ForestFirePar, g, Options{P: 8, Seed: 7})
	if res.Stats.Messages != 0 {
		t.Fatal("forest fire must be communication free")
	}
	if res.Stats.P != 8 {
		t.Fatalf("P = %d", res.Stats.P)
	}
	res.Subgraph.ForEachEdge(func(u, v int32) {
		if !g.HasEdge(u, v) {
			t.Fatal("selected non-existent edge")
		}
	})
}

func TestForestFireTerminatesOnDisconnected(t *testing.T) {
	// Many isolated vertices plus one component; must not spin forever.
	b := graph.NewBuilder(100)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.Build()
	res := mustRun(t, ForestFireSeq, g, Options{Seed: 1})
	if res.Subgraph.M() > g.M() {
		t.Fatal("overselected")
	}
}

func TestForestFireLikeRandomWalkKillsWeakClusters(t *testing.T) {
	// As an agnostic filter, forest fire (like the random walk) thins
	// planted weak modules; the chordal filter keeps far more module
	// structure on the same network.
	pr := graph.PlantedModules(800, 650, graph.ModuleSpec{
		Count: 10, MinSize: 6, MaxSize: 8, Density: 0.55, NoiseDeg: 0.4, Window: 3,
	}, 6)
	g := pr.G
	ff := mustRun(t, ForestFireSeq, g, Options{Seed: 2})
	ch := mustRun(t, ChordalSeq, g, Options{})
	ffKept, chKept, total := 0, 0, 0
	for _, mod := range pr.Modules {
		for i := 0; i < len(mod); i++ {
			for j := i + 1; j < len(mod); j++ {
				if !g.HasEdge(mod[i], mod[j]) {
					continue
				}
				total++
				if ff.Subgraph.HasEdge(mod[i], mod[j]) {
					ffKept++
				}
				if ch.Subgraph.HasEdge(mod[i], mod[j]) {
					chKept++
				}
			}
		}
	}
	if total == 0 {
		t.Fatal("no module edges")
	}
	if chKept <= ffKept {
		t.Fatalf("chordal kept %d/%d module edges, forest fire %d/%d — adaptive filter should win",
			chKept, total, ffKept, total)
	}
}
