package main

import (
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// passMeasure is the host cost of one pass.
type passMeasure struct {
	Wall, CPU  float64 // seconds
	AllocMB    float64 // TotalAlloc delta
	PeakHeapMB float64 // max HeapAlloc seen by the sampler
	Mallocs    uint64
	GCCycles   uint32
	GCCPU      float64 // seconds of CPU the collector used
	Out        *passOut
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// heapSampler tracks the largest live heap a 20 ms ticker observes, the
// same way experiments.MeasureEntry does.
type heapSampler struct {
	stop chan struct{}
	peak chan uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), peak: make(chan uint64, 1)}
	go func() {
		var ms runtime.MemStats
		var max uint64
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				h.peak <- max
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > max {
					max = ms.HeapAlloc
				}
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	return <-h.peak
}

// measurePass forces a GC, then runs one pass of w under the wall, CPU
// and heap meters.
func measurePass(w workloadDef, c passCtx) passMeasure {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	gc0 := gcCPUSeconds()
	sampler := startHeapSampler()
	cpu0 := cpuSeconds()
	start := time.Now()
	out := w.Pass(w, c)
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	peak := sampler.finish()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > peak {
		peak = after.HeapAlloc
	}
	return passMeasure{
		Wall:       wall,
		CPU:        cpu,
		AllocMB:    float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
		PeakHeapMB: float64(peak) / 1e6,
		Mallocs:    after.Mallocs - before.Mallocs,
		GCCycles:   after.NumGC - before.NumGC,
		GCCPU:      gcCPUSeconds() - gc0,
		Out:        out,
	}
}
