package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"sync"
)

// The host's speed drifts. On the shared 2-vCPU machine this benchmark was
// defined on, the CPU time of one fixed kernel moved by 30–45% over a few
// minutes as other guests loaded the physical cores — sometimes by 30%
// within one run — while its ratio to the reference pass below stayed
// within 3–6%. A run therefore times the reference pass between the
// segments of its measured phase and reports every time metric scaled to
// what it would read at the reference speed: times × referenceMs ÷
// measured pass, rates × the inverse. The pass runs only the Go standard
// library (sorting, map inserts and lookups, JSON encoding, SHA-256), so
// no change to this repository can move it.

// referenceMs is the reference pass's CPU time at the reference speed: its
// median over 1200 passes in 80 runs on the machine BASELINE.json was
// measured on (2-vCPU x86-64 with AVX2, Go 1.24).
const referenceMs = 111.0

// calibrationPasses is how many passes one calibration point times. The
// passes of one point spread by about 9% on the defining host, about as much
// as the points of a run differ from each other, so a point is the median
// of five.
const calibrationPasses = 5

// referenceInput is the pass's fixed input, built once.
var referenceInput = sync.OnceValue(func() (in struct {
	floats  []float64
	records []referenceRecord
	blob    []byte
}) {
	rng := rand.New(rand.NewSource(1))
	in.floats = make([]float64, 100000)
	for i := range in.floats {
		in.floats[i] = rng.Float64()
	}
	in.records = make([]referenceRecord, 2500)
	for i := range in.records {
		in.records[i] = referenceRecord{i, strconv.Itoa(i * 7), in.floats[i : i+8]}
	}
	in.blob = make([]byte, 2<<20)
	rng.Read(in.blob)
	return in
})

type referenceRecord struct {
	A int
	B string
	C []float64
}

// referenceScratch is one goroutine's working memory, reused across its
// passes so that a pass allocates next to nothing and no collection lands
// inside the timing.
type referenceScratch struct {
	floats []float64
	m      map[int]int
	buf    bytes.Buffer
}

// pass is one pass of the reference work.
func (s *referenceScratch) pass() {
	in := referenceInput()
	for k := 0; k < 3; k++ {
		s.floats = append(s.floats[:0], in.floats...)
		sort.Float64s(s.floats)
	}
	clear(s.m)
	for i := 0; i < 150000; i++ {
		s.m[i*2654435761%1000003] = i
	}
	sum := 0
	for i := 0; i < 150000; i++ {
		sum += s.m[i]
	}
	enc := json.NewEncoder(&s.buf)
	for k := 0; k < 5; k++ {
		s.buf.Reset()
		if err := enc.Encode(in.records); err != nil {
			panic(err)
		}
	}
	for k := 0; k < 10; k++ {
		sha256.Sum256(in.blob)
	}
	runtime.KeepAlive(sum)
}

// calibrator times the reference pass on every CPU at once, as the
// workloads load every CPU. Its scratch (about 7 MB per CPU) lives as long
// as the run, so calibration points between segments add no garbage.
type calibrator struct{ scratch []referenceScratch }

// newCalibrator allocates the scratch and runs one untimed pass, which
// takes the first-touch page faults and map growth (it reads about 6%
// slow).
func newCalibrator() *calibrator {
	c := &calibrator{scratch: make([]referenceScratch, runtime.NumCPU())}
	for i := range c.scratch {
		c.scratch[i].m = make(map[int]int)
	}
	c.passOnEveryCPU()
	return c
}

func (c *calibrator) passOnEveryCPU() {
	var wg sync.WaitGroup
	for i := range c.scratch {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.scratch[i].pass()
		}()
	}
	wg.Wait()
}

// point times calibrationPasses passes and returns each one's CPU time per
// CPU, in milliseconds. It first finishes any collection the workload
// started, whose background CPU would otherwise land in the timing.
func (c *calibrator) point() []float64 {
	runtime.GC()
	out := make([]float64, 0, calibrationPasses)
	for r := 0; r < calibrationPasses; r++ {
		start := cpuTime()
		c.passOnEveryCPU()
		out = append(out, ms(cpuTime()-start)/float64(len(c.scratch)))
	}
	return out
}
