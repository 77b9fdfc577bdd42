package datasets

import (
	"math"
	"testing"

	"parsample/internal/mcode"
)

func TestSizesMatchPaper(t *testing.T) {
	yng := YNG()
	if yng.G.N() != 5348 {
		t.Fatalf("YNG n = %d, want 5348", yng.G.N())
	}
	if d := math.Abs(float64(yng.G.M()-7277)) / 7277; d > 0.05 {
		t.Fatalf("YNG m = %d, want ≈ 7277", yng.G.M())
	}
	cre := CRE()
	if cre.G.N() != 27896 {
		t.Fatalf("CRE n = %d, want 27896", cre.G.N())
	}
	if d := math.Abs(float64(cre.G.M()-30296)) / 30296; d > 0.05 {
		t.Fatalf("CRE m = %d, want ≈ 30296", cre.G.M())
	}
}

func TestAllDatasetsWellFormed(t *testing.T) {
	for _, ds := range All() {
		if ds.Name == "" || ds.G == nil || ds.DAG == nil || ds.Ann == nil {
			t.Fatalf("%s: incomplete dataset", ds.Name)
		}
		if len(ds.Modules) == 0 {
			t.Fatalf("%s: no planted modules", ds.Name)
		}
		if ds.Ann.NumGenes() != ds.G.N() {
			t.Fatalf("%s: annotations cover %d genes, graph has %d",
				ds.Name, ds.Ann.NumGenes(), ds.G.N())
		}
		// Sparse like the paper's networks: average degree between 2 and 4.
		avg := 2 * float64(ds.G.M()) / float64(ds.G.N())
		if avg < 1.5 || avg > 4.5 {
			t.Fatalf("%s: average degree %.2f out of the paper's regime", ds.Name, avg)
		}
	}
}

func TestDatasetsCached(t *testing.T) {
	if YNG() != YNG() {
		t.Fatal("YNG not cached")
	}
	if CRE() != CRE() {
		t.Fatal("CRE not cached")
	}
}

func TestModulesAreClusterable(t *testing.T) {
	// The original UNT/CRE networks must yield MCODE clusters (the paper
	// finds clusters in all original networks).
	for _, ds := range []*Dataset{UNT(), CRE()} {
		clusters, err := mcode.FindClustersContext(t.Context(), ds.G, mcode.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if len(clusters) < 5 {
			t.Fatalf("%s: only %d clusters found in original network", ds.Name, len(clusters))
		}
	}
}

func TestSpecFor(t *testing.T) {
	for _, name := range []string{"YNG", "MID", "UNT", "CRE"} {
		spec, ok := SpecFor(name)
		if !ok || spec.Name != name {
			t.Fatalf("SpecFor(%s) missing", name)
		}
	}
	if _, ok := SpecFor("NOPE"); ok {
		t.Fatal("unknown name accepted")
	}
}

func TestDeterministicBuild(t *testing.T) {
	spec, _ := SpecFor("YNG")
	a := Build(spec)
	b := Build(spec)
	if a.G.M() != b.G.M() || a.G.N() != b.G.N() {
		t.Fatal("dataset synthesis not deterministic")
	}
	for i, e := range a.G.Edges() {
		if b.G.Edges()[i] != e {
			t.Fatal("edge lists differ across builds")
		}
	}
}
