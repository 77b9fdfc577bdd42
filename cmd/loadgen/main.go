// Command loadgen drives a running `parsample serve` daemon through the traffic
// shapes the admission gate is built for and reports what came back:
// latency quantiles (p50/p95/p99), cache-hit rate, and the structured
// rejection breakdown by api.Error code.
//
// Phases (select with -phases, default all):
//
//	baseline   sequential warm repeats on an idle daemon — the reference
//	           latency the burst phase compares against
//	cold       -concurrency workers submitting distinct cold synthesis
//	           requests for -duration
//	warm       the same workers hammering one resident request
//	burst      a cold-heavy wave sized at -burst-factor × the daemon's
//	           admission budget (read from /statsz), fired at once, with
//	           warm interactive probes interleaved to measure latency
//	           under load; /statsz is polled for peak queue depth
//	slowloris  SSE consumers that connect to a job's event stream and
//	           read nothing, exercising the per-write-deadline shedding
//
// Exit status is non-zero when an assertion flag is violated:
//
//	-require-429     the burst phase must observe ≥ 1 structured 429
//	                 carrying Retry-After (the gate is actually gating)
//	-max-500 N       at most N HTTP 500s across the run (a 500 means an
//	                 internal error or an escaped panic; shedding uses
//	                 413/429/503/504, never 500)
//	-max-warm-slowdown R   burst-phase warm p99 ≤ R × baseline warm p99
//	-require-disk-hit      at least one 200 must be served from the
//	                 persistent disk tier (X-Parsample-Cache: disk) — the
//	                 warm-restart smoke assertion
//
// Every 200 is attributed to its cache source from the X-Parsample-Cache
// header — memory (hit), disk, or computed (miss) — and each phase reports
// the breakdown.
//
// Quick start (two terminals):
//
//	parsample serve -addr :8080 -capacity-units 200
//	loadgen -addr http://localhost:8080 -duration 5s -require-429 -max-500 0
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"parsample/api"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "loadgen: %v\n", err)
		os.Exit(1)
	}
}

type config struct {
	addr        string
	phases      map[string]bool
	duration    time.Duration
	concurrency int
	genes       int
	samples     int
	seed        int64
	burstFactor float64
	require429  bool
	max500      int
	maxSlowdown float64
	reqDiskHit  bool
	jsonOut     bool
}

func run(args []string) error {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var (
		addr     = fs.String("addr", "http://localhost:8080", "daemon base URL")
		phases   = fs.String("phases", "baseline,cold,warm,burst,slowloris", "comma-separated phases to run")
		duration = fs.Duration("duration", 10*time.Second, "wall-time budget per timed phase")
		conc     = fs.Int("concurrency", 8, "workers per timed phase")
		genes    = fs.Int("genes", 256, "synthesis matrix height (drives per-request cost)")
		samples  = fs.Int("samples", 32, "synthesis matrix width")
		seed     = fs.Int64("seed", 1, "base seed; cold requests use seed+i so every request is a distinct fingerprint")
		burstF   = fs.Float64("burst-factor", 4, "burst wave size in multiples of the daemon's admission budget")
		req429   = fs.Bool("require-429", false, "fail unless the burst phase observes a structured 429 with Retry-After")
		max500   = fs.Int("max-500", -1, "fail when more than this many HTTP 500s are observed (-1: no assertion)")
		maxSlow  = fs.Float64("max-warm-slowdown", 0, "fail when burst-phase warm p99 exceeds this multiple of the baseline warm p99 (0: no assertion)")
		reqDisk  = fs.Bool("require-disk-hit", false, "fail unless at least one 200 is served from the persistent disk tier (X-Parsample-Cache: disk)")
		jsonOut  = fs.Bool("json", false, "emit the summary as JSON")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := config{
		addr: strings.TrimRight(*addr, "/"), duration: *duration, concurrency: *conc,
		genes: *genes, samples: *samples, seed: *seed, burstFactor: *burstF,
		require429: *req429, max500: *max500, maxSlowdown: *maxSlow, reqDiskHit: *reqDisk, jsonOut: *jsonOut,
		phases: make(map[string]bool),
	}
	for _, p := range strings.Split(*phases, ",") {
		cfg.phases[strings.TrimSpace(p)] = true
	}

	if err := waitHealthy(cfg.addr, 30*time.Second); err != nil {
		return err
	}
	g := &generator{cfg: cfg, client: &http.Client{Timeout: 120 * time.Second}}
	return g.runAll()
}

func waitHealthy(addr string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon at %s never became healthy: %v", addr, err)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// ---------------------------------------------------------------- request

func (g *generator) body(seed int64) string {
	return fmt.Sprintf(`{
		"network": {"synthesis": {"genes": %d, "samples": %d, "modules": 4, "moduleSize": 8, "seed": %d}},
		"filter": {"algorithm": "chordal-nocomm", "ordering": "HD", "p": 2, "seed": 3}
	}`, g.cfg.genes, g.cfg.samples, seed)
}

// estimate prices one generated request exactly as the daemon will: both
// sides share api.EstimateCost.
func (g *generator) estimate() float64 {
	var req api.Request
	if err := json.Unmarshal([]byte(g.body(g.cfg.seed)), &req); err != nil {
		return 1
	}
	return api.EstimateCost(&req).Units
}

// shot is one request's outcome.
type shot struct {
	status     int
	code       string // api.Error code on non-2xx
	cache      string // raw X-Parsample-Cache header: hit, disk or miss
	retryAfter bool
	latency    time.Duration
}

func (g *generator) fire(seed int64, client, priority string) shot {
	start := time.Now()
	req, err := http.NewRequest(http.MethodPost, g.cfg.addr+"/v1/pipeline", strings.NewReader(g.body(seed)))
	if err != nil {
		return shot{status: -1, latency: time.Since(start)}
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Parsample-Client", client)
	if priority != "" {
		req.Header.Set("X-Parsample-Priority", priority)
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return shot{status: -1, latency: time.Since(start)}
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
	s := shot{
		status:     resp.StatusCode,
		cache:      resp.Header.Get("X-Parsample-Cache"),
		retryAfter: resp.Header.Get("Retry-After") != "",
		latency:    time.Since(start),
	}
	if resp.StatusCode >= 400 {
		var ae api.Error
		if json.Unmarshal(bytes.TrimSpace(body), &ae) == nil {
			s.code = ae.Code
		}
	}
	return s
}

// ---------------------------------------------------------------- phases

type phaseReport struct {
	Phase      string         `json:"phase"`
	Requests   int            `json:"requests"`
	Statuses   map[string]int `json:"statuses"`
	Rejections map[string]int `json:"rejections,omitempty"`
	CacheHit   float64        `json:"cacheHitRate"`
	// Cache attributes each 200 to how the daemon obtained its artifacts:
	// memory (header "hit"), disk (persistent-tier load) or computed
	// (header "miss" — at least one kernel ran).
	Cache map[string]int `json:"cacheSources,omitempty"`
	P50MS float64        `json:"p50Ms"`
	P95MS float64        `json:"p95Ms"`
	P99MS float64        `json:"p99Ms"`
	Extra map[string]any `json:"extra,omitempty"`
	shots []shot         `json:"-"`
}

type generator struct {
	cfg    config
	client *http.Client

	reports []phaseReport

	baselineWarmP99 float64
	burstWarmP99    float64
	total500        int
	burst429        int
	totalDiskHits   int
}

func summarize(phase string, shots []shot, extra map[string]any) phaseReport {
	r := phaseReport{Phase: phase, Requests: len(shots), Statuses: map[string]int{}, Rejections: map[string]int{}, Cache: map[string]int{}, Extra: extra, shots: shots}
	var lats []float64
	hits := 0
	for _, s := range shots {
		r.Statuses[fmt.Sprint(s.status)]++
		if s.code != "" {
			r.Rejections[s.code]++
		}
		if s.status == http.StatusOK {
			lats = append(lats, float64(s.latency.Microseconds())/1000)
			switch s.cache {
			case "hit":
				hits++
				r.Cache["memory"]++
			case "disk":
				r.Cache["disk"]++
			default:
				r.Cache["computed"]++
			}
		}
	}
	if n := r.Statuses["200"]; n > 0 {
		r.CacheHit = float64(hits) / float64(n)
	}
	sort.Float64s(lats)
	r.P50MS, r.P95MS, r.P99MS = quantile(lats, 0.50), quantile(lats, 0.95), quantile(lats, 0.99)
	return r
}

func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func (g *generator) runAll() error {
	order := []string{"baseline", "cold", "warm", "burst", "slowloris"}
	for _, phase := range order {
		if !g.cfg.phases[phase] {
			continue
		}
		var rep phaseReport
		switch phase {
		case "baseline":
			rep = g.phaseBaseline()
		case "cold":
			rep = g.phaseTimed("cold", true)
		case "warm":
			rep = g.phaseTimed("warm", false)
		case "burst":
			rep = g.phaseBurst()
		case "slowloris":
			rep = g.phaseSlowLoris()
		}
		for _, s := range rep.shots {
			if s.status == http.StatusInternalServerError {
				g.total500++
			}
			if s.status == http.StatusOK && s.cache == "disk" {
				g.totalDiskHits++
			}
		}
		g.reports = append(g.reports, rep)
	}
	g.print()
	return g.assert()
}

// phaseBaseline: one cold prime, then sequential warm repeats on the idle
// daemon. Its warm p99 is the burst comparison's denominator.
func (g *generator) phaseBaseline() phaseReport {
	prime := g.fire(g.cfg.seed, "loadgen-baseline", "")
	// On a disk-warm replica the prime is the one baseline request the disk
	// tier can serve (it promotes what it loads, so the repeats hit memory);
	// it counts toward -require-disk-hit but stays out of the latency stats.
	if prime.status == http.StatusOK && prime.cache == "disk" {
		g.totalDiskHits++
	}
	var shots []shot
	for i := 0; i < 50; i++ {
		shots = append(shots, g.fire(g.cfg.seed, "loadgen-baseline", ""))
	}
	rep := summarize("baseline", shots, map[string]any{"primeStatus": prime.status, "primeMs": float64(prime.latency.Microseconds()) / 1000})
	g.baselineWarmP99 = rep.P99MS
	return rep
}

// phaseTimed: -concurrency workers for -duration. cold gives every
// request a fresh seed (distinct fingerprint, full compute); warm hammers
// the primed request.
func (g *generator) phaseTimed(name string, cold bool) phaseReport {
	var mu sync.Mutex
	var shots []shot
	var next int64 = 1000
	if name == "warm" {
		g.fire(g.cfg.seed, "loadgen-warm-prime", "")
	}
	stop := time.Now().Add(g.cfg.duration)
	var wg sync.WaitGroup
	for w := 0; w < g.cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := fmt.Sprintf("loadgen-%s-%d", name, w)
			for time.Now().Before(stop) {
				seed := g.cfg.seed
				if cold {
					mu.Lock()
					next++
					seed = g.cfg.seed + next
					mu.Unlock()
				}
				s := g.fire(seed, client, "")
				mu.Lock()
				shots = append(shots, s)
				mu.Unlock()
				if s.status >= 400 {
					// Rejected: ease off instead of busy-spinning the
					// daemon's rejection fast path.
					time.Sleep(5 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	return summarize(name, shots, nil)
}

// phaseBurst: repeated synchronized cold-heavy waves, each sized
// burst-factor × the daemon's admission budget, fired back to back for
// -duration with warm interactive probes riding along the whole time.
// /statsz is polled throughout for peak queue depth.
func (g *generator) phaseBurst() phaseReport {
	st, err := g.statsz()
	if err != nil {
		return phaseReport{Phase: "burst", Extra: map[string]any{"error": err.Error()}}
	}
	capacity := st.Admission.CapacityUnits
	perReq := g.estimate()
	wave := int(math.Ceil(g.cfg.burstFactor * capacity / perReq))
	if wave < g.cfg.concurrency {
		wave = g.cfg.concurrency
	}
	if wave > 512 {
		wave = 512
	}
	// Prime one warm request for the in-load probes.
	g.fire(g.cfg.seed, "loadgen-burst-probe", "")

	var mu sync.Mutex
	var shots, warmShots []shot
	stopPoll := make(chan struct{})
	var peakQueue int
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		for {
			select {
			case <-stopPoll:
				return
			case <-time.After(50 * time.Millisecond):
				if st, err := g.statsz(); err == nil && st.Admission.QueueDepth > peakQueue {
					peakQueue = st.Admission.QueueDepth
				}
			}
		}
	}()
	// Warm interactive probes while the waves are in flight.
	probeStop := make(chan struct{})
	var probeWG sync.WaitGroup
	probeWG.Add(1)
	go func() {
		defer probeWG.Done()
		for {
			select {
			case <-probeStop:
				return
			case <-time.After(10 * time.Millisecond):
				s := g.fire(g.cfg.seed, "loadgen-burst-probe", "interactive")
				mu.Lock()
				warmShots = append(warmShots, s)
				mu.Unlock()
			}
		}
	}()

	var nextSeed int64 = 20000
	waves := 0
	stop := time.Now().Add(g.cfg.duration)
	for waves == 0 || time.Now().Before(stop) {
		waves++
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := 0; i < wave; i++ {
			wg.Add(1)
			nextSeed++
			go func(i int, seed int64) {
				defer wg.Done()
				<-start
				s := g.fire(g.cfg.seed+seed, fmt.Sprintf("loadgen-burst-%d", i%g.cfg.concurrency), "batch")
				mu.Lock()
				shots = append(shots, s)
				mu.Unlock()
			}(i, nextSeed)
		}
		close(start)
		wg.Wait()
	}
	close(probeStop)
	probeWG.Wait()
	close(stopPoll)
	pollWG.Wait()

	warmRep := summarize("burst-warm-probes", warmShots, nil)
	g.burstWarmP99 = warmRep.P99MS
	for _, s := range shots {
		if s.status == http.StatusTooManyRequests && s.retryAfter {
			g.burst429++
		}
	}
	rep := summarize("burst", shots, map[string]any{
		"waves":           waves,
		"waveSize":        wave,
		"perRequestUnits": perReq,
		"capacityUnits":   capacity,
		"peakQueueDepth":  peakQueue,
		"queueLimit":      st.Admission.QueueLimit,
		"warmProbeP50Ms":  warmRep.P50MS,
		"warmProbeP99Ms":  warmRep.P99MS,
		"warmProbes":      warmRep.Requests,
	})
	rep.shots = append(rep.shots, warmShots...)
	return rep
}

// phaseSlowLoris: SSE consumers that subscribe to a job's event stream
// and never read, leaving the server's per-write deadline to shed them.
func (g *generator) phaseSlowLoris() phaseReport {
	before, _ := g.statsz()
	// A job with enough work to emit several frames.
	resp, err := g.client.Post(g.cfg.addr+"/v1/jobs", "application/json", strings.NewReader(g.body(g.cfg.seed+777)))
	if err != nil {
		return phaseReport{Phase: "slowloris", Extra: map[string]any{"error": err.Error()}}
	}
	var ji struct {
		ID string `json:"id"`
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := json.Unmarshal(body, &ji); err != nil || ji.ID == "" {
		return phaseReport{Phase: "slowloris", Extra: map[string]any{"error": fmt.Sprintf("job submit: %d %s", resp.StatusCode, body)}}
	}
	const consumers = 4
	var wg sync.WaitGroup
	for i := 0; i < consumers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Connect and stall: no reads until the hold expires.
			resp, err := g.client.Get(g.cfg.addr + "/v1/jobs/" + ji.ID + "/events")
			if err != nil {
				return
			}
			defer resp.Body.Close()
			hold := g.cfg.duration
			if hold > 5*time.Second {
				hold = 5 * time.Second
			}
			time.Sleep(hold)
			// Drain whatever survived; the server may have shed us long ago.
			br := bufio.NewReader(resp.Body)
			for {
				if _, err := br.ReadString('\n'); err != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	after, _ := g.statsz()
	extra := map[string]any{"consumers": consumers, "jobID": ji.ID}
	if before != nil && after != nil {
		extra["sseShedDelta"] = after.Admission.Shed.SSESlowConsumers - before.Admission.Shed.SSESlowConsumers
	}
	return phaseReport{Phase: "slowloris", Statuses: map[string]int{}, Extra: extra}
}

// ---------------------------------------------------------------- statsz

type statszBody struct {
	Admission struct {
		CapacityUnits float64          `json:"capacityUnits"`
		InUseUnits    float64          `json:"inUseUnits"`
		QueueDepth    int              `json:"queueDepth"`
		QueueLimit    int              `json:"queueLimit"`
		Admitted      int64            `json:"admitted"`
		Rejected      map[string]int64 `json:"rejected"`
		Shed          struct {
			ColdRequests     int64 `json:"coldRequests"`
			SSESlowConsumers int64 `json:"sseSlowConsumers"`
		} `json:"shed"`
		Level int `json:"level"`
	} `json:"admission"`
}

func (g *generator) statsz() (*statszBody, error) {
	resp, err := g.client.Get(g.cfg.addr + "/statsz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st statszBody
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}

// ---------------------------------------------------------------- report

func (g *generator) print() {
	if g.cfg.jsonOut {
		out := struct {
			Phases          []phaseReport `json:"phases"`
			BaselineWarmP99 float64       `json:"baselineWarmP99Ms"`
			BurstWarmP99    float64       `json:"burstWarmP99Ms"`
			Burst429        int           `json:"burst429WithRetryAfter"`
			Total500        int           `json:"total500"`
			DiskHits        int           `json:"diskHits"`
		}{g.reports, g.baselineWarmP99, g.burstWarmP99, g.burst429, g.total500, g.totalDiskHits}
		b, _ := json.MarshalIndent(out, "", "  ")
		fmt.Println(string(b))
		return
	}
	for _, r := range g.reports {
		fmt.Printf("== %s: %d requests\n", r.Phase, r.Requests)
		if len(r.Statuses) > 0 {
			fmt.Printf("   statuses: %v\n", r.Statuses)
		}
		if len(r.Rejections) > 0 {
			fmt.Printf("   rejections: %v\n", r.Rejections)
		}
		if r.Requests > 0 {
			fmt.Printf("   cache-hit rate: %.2f  p50 %.1fms  p95 %.1fms  p99 %.1fms\n", r.CacheHit, r.P50MS, r.P95MS, r.P99MS)
			if len(r.Cache) > 0 {
				fmt.Printf("   cache sources: memory %d  disk %d  computed %d\n", r.Cache["memory"], r.Cache["disk"], r.Cache["computed"])
			}
		}
		if len(r.Extra) > 0 {
			b, _ := json.Marshal(r.Extra)
			fmt.Printf("   %s\n", b)
		}
	}
	if g.baselineWarmP99 > 0 && g.burstWarmP99 > 0 {
		fmt.Printf("== warm p99 under burst: %.1fms vs %.1fms unloaded (%.1fx)\n",
			g.burstWarmP99, g.baselineWarmP99, g.burstWarmP99/g.baselineWarmP99)
	}
}

func (g *generator) assert() error {
	var fails []string
	if g.cfg.require429 && g.burst429 == 0 {
		fails = append(fails, "burst phase observed no structured 429 with Retry-After")
	}
	if g.cfg.max500 >= 0 && g.total500 > g.cfg.max500 {
		fails = append(fails, fmt.Sprintf("observed %d HTTP 500s (max %d) — an internal error or escaped panic", g.total500, g.cfg.max500))
	}
	if g.cfg.maxSlowdown > 0 && g.baselineWarmP99 > 0 && g.burstWarmP99 > g.cfg.maxSlowdown*g.baselineWarmP99 {
		fails = append(fails, fmt.Sprintf("warm p99 under burst %.1fms exceeds %.1fx baseline %.1fms",
			g.burstWarmP99, g.cfg.maxSlowdown, g.baselineWarmP99))
	}
	if g.cfg.reqDiskHit && g.totalDiskHits == 0 {
		fails = append(fails, "no response was served from the persistent disk tier (X-Parsample-Cache: disk)")
	}
	if len(fails) > 0 {
		return fmt.Errorf("assertions failed:\n  - %s", strings.Join(fails, "\n  - "))
	}
	return nil
}
