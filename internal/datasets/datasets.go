// Package datasets provides the four evaluation networks used throughout the
// paper's empirical section, synthesized to match the published statistics:
//
//	YNG — GSE5078 young mice:        5,348 vertices /  7,277 edges
//	MID — GSE5078 middle-aged mice:  ~5,500 vertices / ~7,500 edges
//	UNT — GSE5140 untreated mice:    ~27,000 vertices / ~29,500 edges
//	CRE — GSE5140 creatine mice:     27,896 vertices / 30,296 edges
//
// (The paper reports exact sizes only for YNG and CRE; MID and UNT use the
// same dataset families, so they are synthesized at sibling sizes.)
//
// Each dataset embeds planted co-expression modules (the ground-truth
// "biological subsystems"), a synthetic GO DAG, and gene annotations in
// which module genes share deep terms. YNG/MID mimic the paper's observation
// that the preprocessed GSE5078 networks yield few biologically relevant
// clusters: their modules are sparser and annotated at shallower depth,
// so fewer clusters clear the AEES ≥ 3 bar.
package datasets

import (
	"sync"

	"parsample/internal/graph"
	"parsample/internal/ontology"
)

// Dataset is one evaluation network plus its ground truth and ontology.
type Dataset struct {
	Name    string
	G       *graph.Graph
	Modules [][]int32
	DAG     *ontology.DAG
	Ann     *ontology.Annotations
	Seed    int64
}

// Spec parameterizes dataset synthesis.
type Spec struct {
	Name        string
	Vertices    int
	Edges       int // total target edge count (background absorbs the slack)
	Modules     int
	MinSize     int
	MaxSize     int
	Density     float64 // within-module edge probability
	NoiseDeg    float64 // noisy edges per module vertex
	NoiseClumps float64 // clumpy noise attachments per module (see graph.ModuleSpec)
	ModuleDepth int     // GO depth of module terms (higher ⇒ higher AEES)
	Window      int     // id-space locality factor (see graph.ModuleSpec)
	Seed        int64
}

// Build synthesizes the dataset for a spec.
func Build(spec Spec) *Dataset {
	// Expected module edges, to keep the total near spec.Edges.
	avgSize := float64(spec.MinSize+spec.MaxSize) / 2
	moduleEdges := int(float64(spec.Modules) * spec.Density * avgSize * (avgSize - 1) / 2)
	noiseEdges := int(float64(spec.Modules) * avgSize * spec.NoiseDeg)
	bg := spec.Edges - moduleEdges - noiseEdges
	if bg < 0 {
		bg = 0
	}
	pr := graph.PlantedModules(spec.Vertices, bg, graph.ModuleSpec{
		Count:       spec.Modules,
		MinSize:     spec.MinSize,
		MaxSize:     spec.MaxSize,
		Density:     spec.Density,
		NoiseDeg:    spec.NoiseDeg,
		Window:      spec.Window,
		NoiseClumps: spec.NoiseClumps,
	}, spec.Seed)
	dag := ontology.Generate(ontology.GenerateSpec{Depth: 10, Branch: 3, Seed: spec.Seed + 1})
	ann := ontology.AnnotateModules(dag, spec.Vertices, pr.Modules, spec.ModuleDepth, spec.Seed+2)
	return &Dataset{
		Name:    spec.Name,
		G:       pr.G,
		Modules: pr.Modules,
		DAG:     dag,
		Ann:     ann,
		Seed:    spec.Seed,
	}
}

// Specs for the four networks. YNG/MID: smaller, modules annotated at
// moderate depth (the paper found few relevant clusters there). UNT/CRE:
// full-transcriptome sized with deeper module annotations.
var (
	yngSpec = Spec{
		Name: "YNG", Vertices: 5348, Edges: 7277,
		Modules: 12, MinSize: 6, MaxSize: 8, Density: 0.55, NoiseDeg: 0.4,
		NoiseClumps: 0.6, ModuleDepth: 4, Window: 3, Seed: 1001,
	}
	midSpec = Spec{
		Name: "MID", Vertices: 5520, Edges: 7490,
		Modules: 12, MinSize: 6, MaxSize: 8, Density: 0.55, NoiseDeg: 0.4,
		NoiseClumps: 0.6, ModuleDepth: 4, Window: 3, Seed: 1002,
	}
	untSpec = Spec{
		Name: "UNT", Vertices: 27030, Edges: 29480,
		Modules: 30, MinSize: 6, MaxSize: 9, Density: 0.55, NoiseDeg: 0.4,
		NoiseClumps: 0.8, ModuleDepth: 6, Window: 3, Seed: 1003,
	}
	creSpec = Spec{
		Name: "CRE", Vertices: 27896, Edges: 30296,
		Modules: 32, MinSize: 6, MaxSize: 9, Density: 0.55, NoiseDeg: 0.4,
		NoiseClumps: 0.8, ModuleDepth: 6, Window: 3, Seed: 1004,
	}
)

var cache sync.Map // name -> *Dataset

func cached(spec Spec) *Dataset {
	if v, ok := cache.Load(spec.Name); ok {
		return v.(*Dataset)
	}
	ds := Build(spec)
	actual, _ := cache.LoadOrStore(spec.Name, ds)
	return actual.(*Dataset)
}

// Built reports whether the named dataset is already built and cached,
// without building it.
func Built(name string) bool {
	_, ok := cache.Load(name)
	return ok
}

// YNG returns the young-mice network (GSE5078 analogue). Cached.
func YNG() *Dataset { return cached(yngSpec) }

// MID returns the middle-aged-mice network (GSE5078 analogue). Cached.
func MID() *Dataset { return cached(midSpec) }

// UNT returns the untreated-mice network (GSE5140 analogue). Cached.
func UNT() *Dataset { return cached(untSpec) }

// CRE returns the creatine-supplemented-mice network (GSE5140 analogue).
// Cached.
func CRE() *Dataset { return cached(creSpec) }

// All returns the four datasets in the paper's order.
func All() []*Dataset { return []*Dataset{YNG(), MID(), UNT(), CRE()} }

// SpecFor returns the generation spec of a named dataset (for documentation
// and the datagen tool). The second result is false for unknown names.
func SpecFor(name string) (Spec, bool) {
	switch name {
	case "YNG":
		return yngSpec, true
	case "MID":
		return midSpec, true
	case "UNT":
		return untSpec, true
	case "CRE":
		return creSpec, true
	}
	return Spec{}, false
}
