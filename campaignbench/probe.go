package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"syscall"
	"time"
)

// probe is the process's cumulative counters at one instant. Two probes
// bracket a measured interval.
type probe struct {
	at         time.Time
	cpu        time.Duration // getrusage user+sys
	mallocs    uint64        // heap objects allocated, tiny ones included
	allocBytes uint64
	gcCPU      float64 // runtime/metrics GC CPU estimate, seconds
	busyCPU    float64 // runtime/metrics total minus idle CPU, seconds
}

// probeDelta sums the counters over a set of intervals.
type probeDelta struct {
	cpu        time.Duration
	mallocs    uint64
	allocBytes uint64
	gcCPU      float64
	busyCPU    float64
}

// add adds the interval from a to b.
func (d *probeDelta) add(a, b probe) {
	d.cpu += b.cpu - a.cpu
	d.mallocs += b.mallocs - a.mallocs
	d.allocBytes += b.allocBytes - a.allocBytes
	d.gcCPU += b.gcCPU - a.gcCPU
	d.busyCPU += b.busyCPU - a.busyCPU
}

var probeMetrics = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readProbe() probe {
	samples := make([]metrics.Sample, len(probeMetrics))
	for i, name := range probeMetrics {
		samples[i].Name = name
	}
	metrics.Read(samples)
	return probe{
		at:         time.Now(),
		cpu:        processCPU(),
		mallocs:    samples[0].Value.Uint64() + samples[1].Value.Uint64(),
		allocBytes: samples[2].Value.Uint64(),
		gcCPU:      samples[3].Value.Float64(),
		busyCPU:    samples[4].Value.Float64() - samples[5].Value.Float64(),
	}
}

// processCPU is the process's user+sys CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMiB is getrusage's maximum resident set size (KiB on Linux).
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// heapSampler polls /gc/heap/live:bytes and keeps the maximum. The live
// heap only changes when a GC cycle ends, so a 10 ms poll sees every
// value a run of several seconds produces.
type heapSampler struct {
	max  atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > h.max.Load() {
			h.max.Store(v)
		}
	}
	read()
	go func() {
		defer close(h.done)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak live heap in MiB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.max.Load()) / (1 << 20)
}

// heapDelta measures what fn leaves live on the heap, and how many
// objects it allocated, with a full GC on either side.
func heapDelta(fn func()) (liveBytes int64, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapAlloc) - int64(before.HeapAlloc), after.Mallocs - before.Mallocs
}
