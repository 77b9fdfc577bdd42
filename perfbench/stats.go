package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs: the smallest sample with at least p% of the samples at or below it.
// With n samples, n−⌈p·n/100⌉ samples lie beyond it, so p90 of ≥100
// samples has at least ten beyond.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = sorted(xs)
	rank := int(math.Ceil(p * float64(len(xs)) / 100))
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1]
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads printed here match what a Python
// reader computes from the same values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	xs = sorted(xs)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		delta := i*m - j*4
		lo, hi := j-1, j
		if lo < 0 {
			lo = 0
		}
		if hi > n-1 {
			hi = n - 1
		}
		return (xs[lo]*float64(4-delta) + xs[hi]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// median of xs.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// peak-RSS counter, so that peakRSSMB covers only what follows: set-up
// repetitions and calibration passes leave garbage that a daemon serving
// its load would not hold. Where the counter cannot be reset, peakRSSMB
// is the whole process's peak.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the peak resident set since resetPeakRSS (VmHWM), in MiB,
// or getrusage's maxrss where /proc is unavailable.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// cpuTicks is one reading of the aggregate "cpu" line of /proc/stat.
type cpuTicks struct{ total, steal uint64 }

// readTicks reads the machine-wide CPU tick counters; ok is false where
// /proc/stat is unavailable.
func readTicks() (t cpuTicks, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return t, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return t, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return t, false
	}
	for i, s := range fields[1:] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return t, false
		}
		// Fields after steal (guest, guest_nice) are already counted in user.
		if i < 8 {
			t.total += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealPct is the share of CPU time the hypervisor stole between two
// readings, in percent (0 when unavailable).
func stealPct(a, b cpuTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// tick is the unit of /proc/stat's counters (USER_HZ, 100 on Linux).
const tick = 10 * time.Millisecond

// stealPeriod is how often the steal clock samples /proc/stat; finer than
// the counters' tick, so a tick is placed within half a tick of when the
// host accounted it.
const stealPeriod = 5 * time.Millisecond

// stealClock samples the machine's cumulative CPU steal in the background,
// so that a wall-clock interval can be charged the steal the host
// accounted inside it. On a shared host the hypervisor runs other guests
// on this machine's CPUs for 1–40% of the time, in stretches of minutes;
// a wall time with that steal removed is what the same run reads on a
// host of its own.
type stealClock struct {
	ncpu     int
	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	at       []time.Time // sample instants
	steal    []uint64    // cumulative steal ticks over all CPUs at each sample
}

// startStealClock starts sampling; close stops it. Without /proc/stat the
// clock charges no steal.
func startStealClock() *stealClock {
	c := &stealClock{ncpu: runtime.NumCPU(), stop: make(chan struct{}), done: make(chan struct{})}
	c.sample()
	go func() {
		defer close(c.done)
		t := time.NewTicker(stealPeriod)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				c.sample()
				return
			case <-t.C:
				c.sample()
			}
		}
	}()
	return c
}

func (c *stealClock) sample() {
	if t, ok := readTicks(); ok {
		c.at = append(c.at, time.Now())
		c.steal = append(c.steal, t.steal)
	}
}

// close stops sampling and waits for the sampler; stolen may be called
// only after it. Safe to call more than once.
func (c *stealClock) close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// stolen is the steal accounted on the average CPU between a and b:
// the counter's growth between the last samples taken before each.
func (c *stealClock) stolen(a, b time.Time) time.Duration {
	at := func(t time.Time) uint64 {
		i := sort.Search(len(c.at), func(i int) bool { return c.at[i].After(t) })
		if i == 0 {
			return 0
		}
		return c.steal[i-1]
	}
	sa, sb := at(a), at(b)
	if len(c.at) == 0 || sb <= sa {
		return 0
	}
	return time.Duration(sb-sa) * tick / time.Duration(c.ncpu)
}

// unstolen is the wall time from a to b less the steal inside it (never
// below zero: a tick can land inside an interval shorter than itself).
func (c *stealClock) unstolen(a, b time.Time) time.Duration {
	return max(0, b.Sub(a)-c.stolen(a, b))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
