package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// processCPU is the CPU time, user plus system, of every thread of the
// process. The simulation workloads time their operations with it: the
// simulation, the GC work it causes on any thread and any helper
// goroutine a machine starts all count, while the time the host gives
// other tenants does not.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// percentile returns the p-th percentile (0..100) of vals by linear
// interpolation between closest ranks; 0 for an empty slice.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	r := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(r))
	hi := int(math.Ceil(r))
	return s[lo] + (s[hi]-s[lo])*(r-float64(lo))
}

func median(vals []float64) float64 { return percentile(vals, 50) }

// tailOK reports whether percentile p of n samples has at least ten
// samples beyond it, the rule every reported tail follows.
func tailOK(n int, p float64) bool { return float64(n)*(1-p/100) >= 10 }

// runtimeSample reads the allocation and GC counters the runtime layer
// reports.
type runtimeSample struct {
	allocBytes, gcCycles uint64
	gcPauseS             float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var out runtimeSample
	out.allocBytes = s[0].Value.Uint64()
	out.gcCycles = s[1].Value.Uint64()
	// Pause time is a histogram; sum bucket midpoints weighted by count.
	h := s[2].Value.Float64Histogram()
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = 0
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		out.gcPauseS += float64(c) * (lo + hi) / 2
	}
	return out
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes + b.allocBytes, a.gcCycles + b.gcCycles, a.gcPauseS + b.gcPauseS}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocBytes - b.allocBytes, a.gcCycles - b.gcCycles, a.gcPauseS - b.gcPauseS}
}

// heapWatch samples the live heap, as the last GC marked it, every few
// milliseconds. finish reports the 99th percentile of those samples over
// time: the heap level the run stays under all but 1% of the time, which
// one collection landing early or late cannot move the way it moves the
// maximum.
type heapWatch struct {
	mu      sync.Mutex
	samples []float64
	stop    chan struct{}
	done    chan struct{}
}

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			h.samples = append(h.samples, float64(s[0].Value.Uint64()))
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the level in MB.
func (h *heapWatch) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return percentile(h.samples, 99) / (1 << 20)
}
