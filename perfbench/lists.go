package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"parsample/api"
	"parsample/internal/experiments"
	"parsample/internal/graph"
	"parsample/internal/sampling"
)

// An item is one entry of a workload's request list.
type item struct {
	// class names the item's cost class; every round of a list holds each
	// class the same number of times, whatever the seed.
	class string
	req   *api.Request
	body  []byte // req as sent on the wire
}

// hash derives a non-negative 63-bit value from the run seed and parts, so
// every seeded choice is a pure function of (seed, position, purpose).
func hash(seed int64, parts ...int) int64 {
	h := uint64(seed)
	for _, p := range parts {
		h = graph.SplitMix64(h + uint64(p)*0x9e3779b97f4a7c15)
	}
	return int64(h >> 1)
}

// roundList is an endless list built of rounds of n slots. The slots of a
// round are sorted by class; a round visits them with a stride near n/φ,
// so any window of consecutive items holds close to the round's class
// mix, and the seed shuffles each block of eight visits. A time-bounded
// run therefore completes the same mix of work on every seed, while the
// order still differs per seed.
type roundList struct {
	n    int
	seed int64

	mu     sync.Mutex
	rounds map[int][]int
}

const shuffleBlock = 8

func newRoundList(n int, seed int64) *roundList {
	return &roundList{n: n, seed: seed, rounds: map[int][]int{}}
}

// slot returns which slot of its round item i visits.
func (l *roundList) slot(i int) int {
	r := i / l.n
	l.mu.Lock()
	defer l.mu.Unlock()
	perm, ok := l.rounds[r]
	if !ok {
		perm = make([]int, l.n)
		stride := goldenStride(l.n)
		for j := range perm {
			perm[j] = j * stride % l.n
		}
		rng := rand.New(rand.NewSource(hash(l.seed, r, 0)))
		for b := 0; b < l.n; b += shuffleBlock {
			blk := perm[b:min(b+shuffleBlock, l.n)]
			rng.Shuffle(len(blk), func(x, y int) { blk[x], blk[y] = blk[y], blk[x] })
		}
		l.rounds[r] = perm
	}
	return perm[i%l.n]
}

// goldenStride is the integer nearest n/φ that is coprime with n, so
// j ↦ j·stride mod n is a permutation that spreads neighbours apart.
func goldenStride(n int) int {
	s := max(1, int(math.Round(float64(n)/math.Phi)))
	for gcd(s, n) != 1 {
		s++
	}
	return s
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// orderings are the four orderings the paper compares.
var orderings = []string{"NO", "HD", "LD", "RCM"}

// parallel reports whether alg is one of the four parallel samplers, the
// only ones whose P matters.
func parallel(alg string) bool {
	for _, a := range experiments.DistAlgorithms {
		if a.String() == alg {
			return true
		}
	}
	return false
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal request: %v", err))
	}
	return b
}

func newItem(class string, req *api.Request) item {
	return item{class: class, req: req, body: mustJSON(req)}
}

// ---------------------------------------------------------- dataset-cold

// datasetCell is one (dataset, sampler, ordering) cell of the paper's grid.
type datasetCell struct{ ds, alg, ord string }

// coldCells is the dataset-cold grid: {YNG, MID, CRE} × 7 samplers × 4
// orderings, minus CRE chordal-seq. Those four cells take 1.5–20 s each,
// almost all of it MCODE on a 24k-edge chordal graph; one of them would
// decide a whole run's throughput, so they are timed separately (-heavy).
var coldCells = func() []datasetCell {
	var cells []datasetCell
	for _, a := range sampling.All {
		for _, o := range orderings {
			for _, ds := range []string{"YNG", "MID", "CRE"} {
				if ds == "CRE" && a == sampling.ChordalSeq {
					continue
				}
				cells = append(cells, datasetCell{ds, a.String(), o})
			}
		}
	}
	return cells
}()

// coldFilterSeeds is how many filter seeds of each cell a round holds.
const coldFilterSeeds = 2

// datasetColdList is the dataset-cold list. A parallel cell's P cycles
// through {2, 4, 8} from a seeded starting point, so every three rounds
// hold each P twice per cell whatever the seed.
func datasetColdList(seed int64) func(i int) item {
	n := len(coldCells) * coldFilterSeeds
	l := newRoundList(n, seed)
	return func(i int) item {
		slot := l.slot(i)
		cell := slot / coldFilterSeeds
		c := coldCells[cell]
		p := 1
		if parallel(c.alg) {
			p = []int{2, 4, 8}[(hash(seed, cell, 1)+int64(i/n*coldFilterSeeds+slot%coldFilterSeeds))%3]
		}
		return newItem(c.ds+"/"+c.alg+"/"+c.ord, &api.Request{
			Network: api.NetworkSource{Dataset: c.ds},
			Filter: api.FilterSpec{
				Algorithm: c.alg, Ordering: c.ord, P: p,
				Seed: hash(seed, i, 2), // distinct per item, so every stage misses
			},
		})
	}
}

// datasetColdWarmup is the set-up's warm-up request: a cheap dataset cell
// under a seed no list item uses.
func datasetColdWarmup(seed int64) item {
	return newItem("warm-up", &api.Request{
		Network: api.NetworkSource{Dataset: "YNG"},
		Filter:  api.FilterSpec{Algorithm: "chordal-nocomm", Ordering: "NO", P: 2, Seed: hash(seed, -1, 2)},
	})
}

// ------------------------------------------------------------ synth-cold

// synthShape is one synthesized-matrix class and its share of a round.
type synthShape struct{ genes, samples, perRound int }

// synthShapes: 30% 1024×64, 45% 2048×64, 25% 4096×100 of an 80-item
// round, so p50 falls inside the 2048 class and p90 inside the 4096 class.
var synthShapes = []synthShape{{1024, 64, 24}, {2048, 64, 36}, {4096, 100, 20}}

const synthRound = 80

// synthClass maps a round slot to its shape and, within the shape, to its
// arithmetic: odd slots float32 (half), every fourth slot Spearman (a
// quarter, all float64).
func synthClass(slot int) (shape synthShape, float32, spearman bool) {
	for _, s := range synthShapes {
		if slot < s.perRound {
			return s, slot%2 == 1, slot%4 == 0
		}
		slot -= s.perRound
	}
	panic("perfbench: synth slot out of range")
}

func synthRequest(shape synthShape, f32, spearman bool, synthSeed, filterSeed int64) (string, *api.Request) {
	corr := &api.CorrelationSpec{Statistic: "pearson", Precision: "float64"}
	if spearman {
		corr.Statistic = "spearman"
	}
	if f32 {
		corr.Precision = "float32"
	}
	class := fmt.Sprintf("%dx%d/%s/%s", shape.genes, shape.samples, corr.Statistic, corr.Precision)
	return class, &api.Request{
		Network: api.NetworkSource{
			Synthesis:   &api.SynthesisSpec{Genes: shape.genes, Samples: shape.samples, Seed: synthSeed},
			Correlation: corr,
		},
		Filter: api.FilterSpec{Algorithm: "chordal-nocomm", Ordering: "HD", P: 4, Seed: filterSeed},
	}
}

func synthColdList(seed int64) func(i int) item {
	l := newRoundList(synthRound, seed)
	return func(i int) item {
		shape, f32, spearman := synthClass(l.slot(i))
		return newItem(synthRequest(shape, f32, spearman, hash(seed, i, 3), hash(seed, i, 2)))
	}
}

// synthColdWarmup is the set-up's warm-up request: the smallest shape,
// synthesized from a seed no list item uses.
func synthColdWarmup(seed int64) item {
	return newItem(synthRequest(synthShapes[0], false, false, hash(seed, -1, 3), hash(seed, -1, 2)))
}

// -------------------------------------------------------------- warm-mix

// warmCells are the 16 dataset requests warm-mix primes: every sampler on
// YNG and MID plus two CRE cells. chordal-seq avoids LD, whose priming
// alone costs most of a second.
var warmCells = []datasetCell{
	{"YNG", "chordal-seq", "NO"}, {"YNG", "chordal-comm", "HD"}, {"YNG", "chordal-nocomm", "LD"},
	{"YNG", "randomwalk-seq", "RCM"}, {"YNG", "randomwalk-par", "NO"}, {"YNG", "forestfire-seq", "HD"},
	{"YNG", "forestfire-par", "LD"},
	{"MID", "chordal-seq", "HD"}, {"MID", "chordal-comm", "LD"}, {"MID", "chordal-nocomm", "RCM"},
	{"MID", "randomwalk-seq", "NO"}, {"MID", "randomwalk-par", "HD"}, {"MID", "forestfire-seq", "LD"},
	{"MID", "forestfire-par", "RCM"},
	{"CRE", "chordal-nocomm", "NO"}, {"CRE", "randomwalk-par", "HD"},
}

// warmP is primed cell k's processor count: 1 for a sequential sampler;
// for a parallel one, fixed per cell and cycling through {2, 4, 8}. A P
// drawn from the seed made priming, which set-up times, cost 0.9–1.3 s of
// CPU depending on the seed.
func warmP(alg string, k int) int {
	if !parallel(alg) {
		return 1
	}
	return []int{2, 4, 8}[k%3]
}

// warmSynth are the 8 synthesized requests warm-mix primes.
var warmSynth = []synthShape{{1024, 64, 4}, {2048, 64, 4}}

// warmPrimed returns the 24 requests warm-mix primes. One in four asks for
// the filtered edge list, so large bodies are encoded beside small ones.
func warmPrimed(seed int64) []item {
	var out []item
	for k, c := range warmCells {
		out = append(out, newItem(c.ds+"/"+c.alg+"/"+c.ord, &api.Request{
			Network: api.NetworkSource{Dataset: c.ds},
			Filter:  api.FilterSpec{Algorithm: c.alg, Ordering: c.ord, P: warmP(c.alg, k), Seed: hash(seed, k, 2)},
		}))
	}
	for _, shape := range warmSynth {
		for j := 0; j < shape.perRound; j++ {
			k := len(out)
			out = append(out, newItem(synthRequest(shape, j%2 == 1, false, hash(seed, k, 3), hash(seed, k, 2))))
		}
	}
	for k := range out {
		if k%4 == 0 {
			out[k].req.Output.Edges = true
			out[k].body = mustJSON(out[k].req)
			out[k].class += "/edges"
		}
	}
	return out
}
