// Package faultinject is a build-tag-free failpoint registry: named sites
// in the serving and engine code call Eval, and a test (or an operator, via
// the PARSAMPLE_FAILPOINTS environment variable or the daemon's -failpoints
// flag) arms a site with an error, a delay, or a panic. The point is to make
// the failure paths of the resilience layer — store put failures, source
// resolution, kernel tile claims, SSE writes — exercisable on a stock
// binary, under -race, with no rebuild.
//
// Cost discipline: when nothing is armed, Eval is one atomic load and a
// branch, so production hot paths (tile claims run millions of times per
// sweep) pay effectively nothing for carrying their sites.
//
// Site catalog (DESIGN.md §8):
//
//	pipeline.store.get     every artifact-store request (before lookup)
//	pipeline.store.put     after a successful compute, before insertion
//	parsample.resolve      every source materialization (synthesis,
//	                       parsing, ontology), inside the first stage of a
//	                       request that misses and needs the source
//	diskstore.write        mid-snapshot, after half the blob is on disk
//	expr.sweep.tile        every correlation-sweep tile claim
//	server.sse.write       every SSE frame write
//	transport.send         every outbound transport frame (data, deposit,
//	                       stats), on every rank — kills the whole mesh
//	transport.send.rank<r> same, but only frames sent by rank r: the
//	                       kill-one-worker-mid-Gatherv drill
package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the error delivered by error-mode sites armed without an
// explicit error (the env/flag syntax always uses it).
var ErrInjected = errors.New("faultinject: injected failure")

// PanicValue is the value panic-mode sites panic with; recovery layers can
// detect injected panics by type-asserting against it.
type PanicValue struct{ Site string }

func (p PanicValue) String() string { return "faultinject: injected panic at " + p.Site }

// Mode selects what an armed site does.
type Mode int

const (
	// ModeError returns Spec.Err (or ErrInjected).
	ModeError Mode = iota
	// ModeDelay sleeps Spec.Delay, then returns nil.
	ModeDelay
	// ModePanic panics with PanicValue{Site}.
	ModePanic
)

// Spec arms one site.
type Spec struct {
	Mode Mode
	// Err is the error returned by ModeError sites; nil selects ErrInjected.
	// Tests use it to inject a specific sentinel that callers match with
	// errors.Is.
	Err error
	// Delay is the ModeDelay sleep.
	Delay time.Duration
	// Prob fires the fault on each hit with this probability; 0 means
	// always. Draws come from a deterministic per-site SplitMix64 stream, so
	// a seeded run is reproducible.
	Prob float64
	// Count caps how many times the fault fires; 0 means unlimited. Hits
	// beyond the cap pass through clean (the site stays armed for Hits
	// accounting).
	Count int64
	// After suppresses the fault for the first After hits (fire on hit
	// After+1 onward) — "fail the third put" is After: 2.
	After int64
}

// site is one armed failpoint.
type site struct {
	spec  Spec
	hits  atomic.Int64 // evaluations since arming
	fired atomic.Int64 // faults actually delivered
	rng   atomic.Uint64
}

var (
	mu    sync.RWMutex
	sites map[string]*site
	armed atomic.Int32 // number of armed sites; 0 short-circuits Eval
)

// Enable arms name with spec (replacing any previous arming).
func Enable(name string, spec Spec) {
	mu.Lock()
	defer mu.Unlock()
	if sites == nil {
		sites = make(map[string]*site)
	}
	if _, ok := sites[name]; !ok {
		armed.Add(1)
	}
	s := &site{spec: spec}
	s.rng.Store(splitmix64Seed(name))
	sites[name] = s
}

// Disable disarms name (a no-op when it was not armed).
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[name]; ok {
		delete(sites, name)
		armed.Add(-1)
	}
}

// Reset disarms every site.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	armed.Add(-int32(len(sites)))
	sites = nil
}

// Hits reports how many times name was evaluated since arming (0 when not
// armed).
func Hits(name string) int64 {
	mu.RLock()
	defer mu.RUnlock()
	if s, ok := sites[name]; ok {
		return s.hits.Load()
	}
	return 0
}

// Fired reports how many faults name actually delivered since arming.
func Fired(name string) int64 {
	mu.RLock()
	defer mu.RUnlock()
	if s, ok := sites[name]; ok {
		return s.fired.Load()
	}
	return 0
}

// Eval is the hook compiled into each site: it returns nil instantly when
// the site is not armed, and otherwise delivers the armed fault (error
// return, sleep, or panic) subject to Prob/Count/After.
func Eval(name string) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.RLock()
	s := sites[name]
	mu.RUnlock()
	if s == nil {
		return nil
	}
	hit := s.hits.Add(1)
	if s.spec.After > 0 && hit <= s.spec.After {
		return nil
	}
	if s.spec.Prob > 0 && s.spec.Prob < 1 && s.draw() >= s.spec.Prob {
		return nil
	}
	if s.spec.Count > 0 && s.fired.Add(1) > s.spec.Count {
		s.fired.Add(-1)
		return nil
	} else if s.spec.Count == 0 {
		s.fired.Add(1)
	}
	switch s.spec.Mode {
	case ModeDelay:
		time.Sleep(s.spec.Delay)
		return nil
	case ModePanic:
		panic(PanicValue{Site: name})
	default:
		if s.spec.Err != nil {
			return s.spec.Err
		}
		return ErrInjected
	}
}

// draw advances the site's deterministic RNG and returns a uniform [0, 1).
func (s *site) draw() float64 {
	for {
		old := s.rng.Load()
		next := splitmix64(old)
		if s.rng.CompareAndSwap(old, next) {
			return float64(next>>11) / (1 << 53)
		}
	}
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func splitmix64Seed(name string) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < len(name); i++ {
		h = splitmix64(h + uint64(name[i]))
	}
	return h
}

// Configure arms sites from a spec string — the grammar of the
// PARSAMPLE_FAILPOINTS environment variable and the daemon's -failpoints
// flag. Comma-separated entries of the form
//
//	site=mode[:arg][;prob=P][;count=N][;after=N]
//
// where mode is error, delay (arg: a time.Duration, e.g. delay:50ms) or
// panic. Examples:
//
//	pipeline.store.put=error
//	expr.sweep.tile=delay:2ms;prob=0.01
//	server.sse.write=error;count=3;after=10
//
// An empty string arms nothing. Returns an error on malformed specs (sites
// armed by earlier entries stay armed).
func Configure(cfg string) error {
	cfg = strings.TrimSpace(cfg)
	if cfg == "" {
		return nil
	}
	for _, ent := range strings.Split(cfg, ",") {
		ent = strings.TrimSpace(ent)
		if ent == "" {
			continue
		}
		name, rest, ok := strings.Cut(ent, "=")
		if !ok || name == "" {
			return fmt.Errorf("faultinject: %q is not site=mode[...]", ent)
		}
		var spec Spec
		parts := strings.Split(rest, ";")
		mode, arg, _ := strings.Cut(parts[0], ":")
		switch mode {
		case "error":
			spec.Mode = ModeError
		case "panic":
			spec.Mode = ModePanic
		case "delay":
			d, err := time.ParseDuration(arg)
			if err != nil {
				return fmt.Errorf("faultinject: %s: bad delay %q: %v", name, arg, err)
			}
			spec.Mode = ModeDelay
			spec.Delay = d
		default:
			return fmt.Errorf("faultinject: %s: unknown mode %q (want error, delay, panic)", name, mode)
		}
		for _, kv := range parts[1:] {
			k, v, _ := strings.Cut(kv, "=")
			switch k {
			case "prob":
				p, err := strconv.ParseFloat(v, 64)
				if err != nil || p < 0 || p > 1 {
					return fmt.Errorf("faultinject: %s: bad prob %q", name, v)
				}
				spec.Prob = p
			case "count":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					return fmt.Errorf("faultinject: %s: bad count %q", name, v)
				}
				spec.Count = n
			case "after":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil || n < 0 {
					return fmt.Errorf("faultinject: %s: bad after %q", name, v)
				}
				spec.After = n
			default:
				return fmt.Errorf("faultinject: %s: unknown option %q", name, k)
			}
		}
		Enable(name, spec)
	}
	return nil
}
