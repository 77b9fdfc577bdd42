// Command perfbench is the repository benchmark. It runs one of three
// seed-generated workloads against the parsample daemon, in-process
// behind a real loopback listener, as a closed loop for a fixed time,
// checks every output, and prints every end-to-end metric — or, traced,
// every per-layer metric — as the last line of standard output:
//
//	bash perfbench/run.sh --workload dataset-cold --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, the metrics and their bounds.
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"parsample/internal/expr"
)

// workload is one benchmark workload.
type workload struct {
	name string
	// minItems is how many leading list items every run completes, even
	// past the deadline; the output digest covers exactly these, and the
	// post-run checks pick from them.
	minItems int
	// prepare runs once per process before the set-up repetitions.
	prepare func()
	// start sets the system under test up; it is what setup_s times.
	start func(seed int64) (system, error)
	// roundtripEvery makes a traced run send every replayed item through
	// the system under test, not only the checked ones.
	roundtripEvery bool
}

var workloads = []workload{
	{
		name: "dataset-cold", minItems: 48, prepare: warmDatasetCache,
		start: func(seed int64) (system, error) {
			return startCold(datasetColdList(seed), datasetColdWarmup(seed), true)
		},
	},
	{
		name: "synth-cold", minItems: 64,
		start: func(seed int64) (system, error) {
			return startCold(synthColdList(seed), synthColdWarmup(seed), false)
		},
	},
	{
		name: "warm-mix", minItems: 2048, prepare: warmDatasetCache, roundtripEvery: true,
		start: startWarm,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// clients is the closed loop's concurrency, one per core of the 2-core
	// host the benchmark was defined on: each client sends its next item
	// when the previous reply has been read in full.
	clients = 2
	// A run sets the system up at least setupReps times, and more (up to
	// maxSetupReps) until setupBudget of wall time has been spent, so that
	// a set-up of a few milliseconds is still a median of many; setup_s is
	// the median, and the last set-up serves the measured phase.
	setupReps    = 5
	maxSetupReps = 50
	setupBudget  = time.Second
	// checkItems is how many seed-chosen items are recomputed outside the
	// system under test after the measured phase.
	checkItems = 8
	// watchdogSlack bounds a run at its --seconds plus this much, so a
	// hang fails instead of stalling.
	watchdogSlack = 150 * time.Second
)

// metric is one named measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is the line printed before the result: what the result line's
// schema has no room for.
type detail struct {
	Workload       string  `json:"workload"`
	Seed           int64   `json:"seed"`
	Trace          bool    `json:"trace"`
	OutputDigest   string  `json:"output_digest,omitempty"`
	LatencySamples int     `json:"latency_samples,omitempty"`
	ErrorRate      float64 `json:"error_rate"`
	MeasuredS      float64 `json:"measured_s"`
	// SetupCPUS and SetupWallS are each set-up repetition's CPU and wall
	// time, unscaled.
	SetupCPUS  []float64 `json:"setup_reps_cpu_s"`
	SetupWallS []float64 `json:"setup_reps_wall_s"`
	// Raw holds the time metrics before steal is taken out and before
	// scaling to the reference speed: what this run felt like on this host.
	Raw map[string]float64 `json:"raw,omitempty"`
	// ReferenceMs is each calibration pass's CPU time, point by point
	// (calibrationPasses per point: one point before the measured phase,
	// one after each segment).
	ReferenceMs []float64 `json:"reference_ms,omitempty"`
	Host        hostInfo  `json:"host"`
	Errors      []string  `json:"errors,omitempty"`
}

// hostInfo is the run's host noise and configuration.
type hostInfo struct {
	StealPct   float64 `json:"steal_pct"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Go         string  `json:"go"`
	KernelISA  string  `json:"kernel_isa"`
}

func newHostInfo(steal float64) hostInfo {
	return hostInfo{
		StealPct:   steal,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Go:         runtime.Version(),
		KernelISA:  expr.KernelISA(),
	}
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: dataset-cold, synth-cold or warm-mix")
		seed    = flag.Int64("seed", 1, "seed the request list is generated from")
		seconds = flag.Float64("seconds", 30, "length of the measured (or replayed) phase")
		trace   = flag.Int("trace", 0, "1: replay the list through each layer's functions and print per-layer metrics")
		runs    = flag.Int("runs", 1, "run the workload this many times, each in a fresh process, and print medians and quartiles")
		spans   = flag.String("spans", "", "traced runs: spans file (default <build dir>/spans-<workload>.jsonl)")
		heavy   = flag.Bool("heavy", false, "time the CRE chordal-seq cells dataset-cold leaves out, once each, and exit")
	)
	flag.Parse()
	if *heavy {
		exitOn(timeHeavy())
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if *runs > 1 {
		exitOn(repeat(*runs))
		return
	}
	limit := time.Duration(*seconds*float64(time.Second)) + watchdogSlack
	time.AfterFunc(limit, func() {
		fmt.Fprintf(os.Stderr, "perfbench: %s did not finish within %v\n", w.name, limit)
		os.Exit(3)
	})
	var (
		res *result
		det *detail
		err error
	)
	if *trace == 1 {
		path := *spans
		if path == "" {
			path = filepath.Join(buildDir(), "spans-"+w.name+".jsonl")
		}
		res, det, err = runTraced(w, *seed, *seconds, path)
	} else {
		res, det, err = runMeasured(w, *seed, *seconds)
	}
	exitOn(err)
	for _, msg := range det.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", msg)
	}
	exitOn(printResult(res, det))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// buildDir is where run.sh builds, and where runs may write.
func buildDir() string {
	if d := os.Getenv("PERFBENCH_OUT"); d != "" {
		return d
	}
	return ".bench_build"
}

// printResult prints the detail line, then the result line.
func printResult(res *result, det *detail) error {
	d, err := json.Marshal(det)
	if err != nil {
		return err
	}
	r, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n%s\n", d, r)
	return err
}

// interval is one timed span of wall clock.
type interval struct{ start, end time.Time }

// setupTimes are the set-up repetitions' times, in seconds.
type setupTimes struct{ cpu, wall []float64 }

// setup starts the system minReps or more times (see setupReps), closing
// all but the last, and returns each repetition's CPU and wall time.
//
// setup_s is CPU time, not wall time. A set-up is a few milliseconds to
// half a second of CPU-bound work; on the shared host the benchmark was
// defined on, its wall time read 2–3× longer in minutes of 25–40% CPU
// steal, more than the steal accounted inside it, while its CPU time,
// which the kernel does not charge stolen time to, stays put. CPU time
// still shows any work moved into set-up.
func setup(w workload, seed int64, minReps int) (system, setupTimes, error) {
	if w.prepare != nil {
		w.prepare()
	}
	var (
		sys   system
		times setupTimes
		spent time.Duration
	)
	for r := 0; r < minReps || (spent < setupBudget && r < maxSetupReps); r++ {
		if sys != nil {
			sys.close()
		}
		runtime.GC() // every repetition starts from the same heap
		cpu0, start := cpuTime(), time.Now()
		s, err := w.start(seed)
		if err != nil {
			return nil, times, fmt.Errorf("set-up: %w", err)
		}
		wall, cpu := time.Since(start), cpuTime()-cpu0
		times.cpu = append(times.cpu, cpu.Seconds())
		times.wall = append(times.wall, wall.Seconds())
		spent += wall
		sys = s
	}
	runtime.GC()
	return sys, times, nil
}

// chosen returns the seed-chosen items to check, among the first n.
func chosen(seed int64, n int) map[int]bool {
	out := map[int]bool{}
	for _, i := range rand.New(rand.NewSource(hash(seed, 99))).Perm(n)[:min(checkItems, n)] {
		out[i] = true
	}
	return out
}

// failures collects failed attempts.
type failures struct {
	mu   sync.Mutex
	n    int
	msgs []string
}

func (f *failures) add(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < 5 {
		f.msgs = append(f.msgs, err.Error())
	}
}

// segments is how many parts the measured phase is cut into. The clients
// pause between parts for a calibration point, and each part is scaled by
// the points on either side of it, so a change of host speed in the middle
// of a run is charged to the part where it happened.
const segments = 4

// sample is one successful send and the segment it ran in.
type sample struct {
	interval
	seg int
}

// runMeasured is one untraced run: set up, drive the closed loop for the
// given time, then check outputs. Wall times are reported with the steal
// the host accounted inside each interval taken out (see stealClock), and
// every time metric is scaled to the reference speed (see calibrate.go);
// the raw values go to the detail line.
func runMeasured(w workload, seed int64, secs float64) (*result, *detail, error) {
	clock := startStealClock()
	defer clock.close()
	sys, setupT, err := setup(w, seed, setupReps)
	if err != nil {
		return nil, nil, err
	}
	defer sys.close()
	cal := newCalibrator()

	checks := chosen(seed, w.minItems)
	digests := make([][32]byte, w.minItems)
	kept := make([][]byte, w.minItems)
	var (
		next    atomic.Int64
		fails   failures
		sent    = make([][]sample, clients)
		attempt = make([]int, clients)
	)
	// drive runs the closed loop until the deadline (and past it until the
	// list's first minItems are done).
	drive := func(seg int, deadline time.Time) {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var buf bytes.Buffer
				for {
					i := int(next.Add(1) - 1)
					if i >= w.minItems && time.Now().After(deadline) {
						return
					}
					start := time.Now()
					out, err := sys.send(i, &buf)
					end := time.Now()
					attempt[c]++
					if err != nil {
						fails.add(fmt.Errorf("item %d: %w", i, err))
						continue
					}
					sent[c] = append(sent[c], sample{interval{start, end}, seg})
					if i < w.minItems {
						digests[i] = sha256.Sum256(out)
						if checks[i] {
							kept[i] = bytes.Clone(out)
						}
					}
				}
			}()
		}
		wg.Wait()
	}

	points := [][]float64{cal.point()}
	resetPeakRSS()
	ticks0, _ := readTicks()
	var (
		segWall []interval
		segCPU  []time.Duration
		rss     float64
		ticks1  cpuTicks
	)
	for k := 0; k < segments; k++ {
		cpu0 := cpuTime()
		start := time.Now()
		drive(k, start.Add(time.Duration(secs/segments*float64(time.Second))))
		segWall = append(segWall, interval{start, time.Now()})
		segCPU = append(segCPU, cpuTime()-cpu0)
		if k == segments-1 {
			rss = peakRSSMB()
			ticks1, _ = readTicks()
		}
		points = append(points, cal.point())
	}

	for i := range checks {
		if kept[i] == nil {
			continue // the send already failed and was counted
		}
		want, err := sys.reference(i)
		if err == nil && !bytes.Equal(want, kept[i]) {
			err = errors.New("output differs from the reference recomputation")
		}
		if err != nil {
			fails.add(fmt.Errorf("check of item %d: %w", i, err))
		}
	}
	h := sha256.New()
	for _, d := range digests {
		h.Write(d[:])
	}
	clock.close()

	// scale[k] turns segment k's times into times at the reference speed.
	var scale []float64
	var refs []float64
	for k, p := range points {
		refs = append(refs, p...)
		if k > 0 {
			scale = append(scale, 2*referenceMs/(median(points[k-1])+median(p)))
		}
	}
	var (
		lat, raw       []float64
		attempted      int
		wall, freeWall float64 // seconds: raw, and unstolen at the reference speed
		cpu, cpuScaled float64 // ms
	)
	for c := range sent {
		attempted += attempt[c]
		for _, s := range sent[c] {
			lat = append(lat, clock.unstolen(s.start, s.end).Seconds()*scale[s.seg])
			raw = append(raw, s.end.Sub(s.start).Seconds())
		}
	}
	for k, iv := range segWall {
		wall += iv.end.Sub(iv.start).Seconds()
		freeWall += clock.unstolen(iv.start, iv.end).Seconds() * scale[k]
		cpu += ms(segCPU[k])
		cpuScaled += ms(segCPU[k]) * scale[k]
	}
	ok := len(lat)
	if ok == 0 {
		return nil, nil, fmt.Errorf("no request succeeded: %v", fails.msgs)
	}
	res := &result{
		Correct:   fails.n == 0,
		Attempted: attempted,
		Failed:    fails.n,
		Metrics: map[string]metric{
			"setup_s":        {median(setupT.cpu) * referenceMs / median(refs), "s"},
			"throughput_rps": {float64(ok) / freeWall, "req/s"},
			"latency_p50_ms": {1000 * percentile(lat, 50), "ms"},
			"latency_p90_ms": {1000 * percentile(lat, 90), "ms"},
			"cpu_ms_per_req": {cpuScaled / float64(attempted), "ms"},
			"max_rss_mb":     {rss, "MB"},
		},
	}
	det := &detail{
		Workload:       w.name,
		Seed:           seed,
		OutputDigest:   hex.EncodeToString(h.Sum(nil)),
		LatencySamples: ok,
		ErrorRate:      float64(fails.n) / float64(attempted),
		MeasuredS:      wall,
		SetupCPUS:      setupT.cpu,
		SetupWallS:     setupT.wall,
		Raw: map[string]float64{
			"setup_s":        median(setupT.cpu),
			"throughput_rps": float64(ok) / wall,
			"latency_p50_ms": 1000 * percentile(raw, 50),
			"latency_p90_ms": 1000 * percentile(raw, 90),
			"cpu_ms_per_req": cpu / float64(attempted),
		},
		ReferenceMs: refs,
		Host:        newHostInfo(stealPct(ticks0, ticks1)),
		Errors:      fails.msgs,
	}
	return res, det, nil
}

// traceMinItems is how many leading items a traced run replays even past
// the deadline; its round-trip checks pick from them.
const traceMinItems = 16

// runTraced replays the workload's list through each layer's functions
// for the given time, then runs the artifact pass, the probe and the
// batched-sweep measurement, and reports per-layer metrics.
func runTraced(w workload, seed int64, secs float64, spansPath string) (*result, *detail, error) {
	sys, setupT, err := setup(w, seed, 1)
	if err != nil {
		return nil, nil, err
	}
	defer sys.close()
	ctx := context.Background()
	checks := chosen(seed, traceMinItems)
	tr := newTracer()
	var fails failures
	attempted := 0

	p := sys.pipeline()
	st0 := countsOf(p.Stats())
	cal := newCalibrator()
	calib := cal.point()
	ticks0, _ := readTicks()
	t0 := time.Now()
	deadline := t0.Add(time.Duration(secs * float64(time.Second)))
	for i := 0; i < traceMinItems || time.Now().Before(deadline); i++ {
		tr.item = int32(i)
		attempted++
		if err := sys.replay(ctx, tr, i, w.roundtripEvery || checks[i]); err != nil {
			fails.add(fmt.Errorf("item %d: %w", i, err))
		}
	}
	wall := time.Since(t0)
	ticks1, _ := readTicks()
	calib = append(calib, cal.point()...)
	st1 := countsOf(p.Stats())
	tr.item = -1

	dir := filepath.Join(buildDir(), fmt.Sprintf("diskstore-%d", os.Getpid()))
	for _, step := range []struct {
		name string
		run  func() error
	}{
		{"artifact pass", func() error { return artifactPass(tr, dir) }},
		{"probe", func() error { return probe(ctx, tr) }},
	} {
		attempted++
		if err := step.run(); err != nil {
			fails.add(fmt.Errorf("%s: %w", step.name, err))
		}
	}
	ratio, err := batchRatioK4(ctx)
	if err != nil {
		return nil, nil, err
	}

	self := selfTimes(tr.spans)
	steal := stealPct(ticks0, ticks1)
	res := &result{
		Correct:   fails.n == 0,
		Attempted: attempted,
		Failed:    fails.n,
		Metrics:   layerMetrics(tr, self, st1.minus(st0), ratio, steal, median(calib)),
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return nil, nil, err
	}
	if err := tr.writeSpans(spansPath, self); err != nil {
		return nil, nil, fmt.Errorf("spans file: %w", err)
	}
	det := &detail{
		Workload:    w.name,
		Seed:        seed,
		Trace:       true,
		ErrorRate:   float64(fails.n) / float64(attempted),
		MeasuredS:   wall.Seconds(),
		SetupCPUS:   setupT.cpu,
		SetupWallS:  setupT.wall,
		ReferenceMs: calib,
		Host:        newHostInfo(steal),
		Errors:      fails.msgs,
	}
	return res, det, nil
}

// repeat re-executes this command n times, each in a fresh process, and
// prints every metric's median and quartiles; all runs must print the same
// output digest.
func repeat(n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var args []string
	flag.Visit(func(f *flag.Flag) {
		if f.Name != "runs" {
			args = append(args, "--"+f.Name, f.Value.String())
		}
	})
	values := map[string][]float64{}
	units := map[string]string{}
	digests := map[string]int{}
	allCorrect := true
	start := time.Now()
	for r := 0; r < n; r++ {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run %d: %w", r+1, err)
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if len(lines) < 2 {
			return fmt.Errorf("run %d printed no result", r+1)
		}
		var det detail
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-2]), &det); err != nil {
			return fmt.Errorf("run %d detail: %w", r+1, err)
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("run %d result: %w", r+1, err)
		}
		fmt.Fprintf(os.Stderr, "run %d: %s\n", r+1, lines[len(lines)-1])
		allCorrect = allCorrect && res.Correct && res.Failed == 0
		digests[det.OutputDigest]++
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	type summary struct {
		Median float64 `json:"median"`
		Q1     float64 `json:"q1"`
		Q3     float64 `json:"q3"`
		Spread float64 `json:"spread"` // (q3 − q1) / median
		Unit   string  `json:"unit"`
	}
	sums := map[string]summary{}
	for k, vs := range values {
		q1, med, q3 := quartiles(vs)
		s := summary{Median: med, Q1: q1, Q3: q3, Unit: units[k]}
		if med != 0 {
			s.Spread = (q3 - q1) / med
		}
		sums[k] = s
	}
	var ds []string
	for d := range digests {
		ds = append(ds, d)
	}
	sort.Strings(ds)
	b, err := json.Marshal(map[string]any{
		"runs":          n,
		"all_correct":   allCorrect,
		"digests":       ds,
		"digests_equal": len(ds) == 1,
		"wall_s":        time.Since(start).Seconds(),
		"metrics":       sums,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}
