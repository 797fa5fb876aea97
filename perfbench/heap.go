package main

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
)

// peakGCPercent is the collector target during the memory pass: a
// collection every 10% of heap growth reads the reachable set a few hundred
// times per iteration, so its maximum is steady from run to run, which at
// the default 100% it is not.
const peakGCPercent = 10

const heapMetric = "/gc/heap/live:bytes"

// peakLiveHeapMB runs fn (one iteration of a workload) with the collector
// at peakGCPercent and returns, in MB (10^6 bytes), the largest live heap
// (the bytes a collection found reachable) of any collection cycle during
// fn. It runs after the timed phase, so the extra collections cost no timed
// work.
func peakLiveHeapMB(fn func()) float64 {
	old := debug.SetGCPercent(peakGCPercent)
	defer debug.SetGCPercent(old)
	runtime.GC()
	w := &gcWatch{}
	w.arm()
	fn()
	w.stopped.Store(true)
	w.read()
	return float64(w.peak.Load()) / 1e6
}

// gcWatch reads the live heap once per collection cycle: a sentinel
// object's finalizer runs after each cycle that finds it unreachable and
// arms a new sentinel for the next one.
type gcWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

// gcSentinel is large enough to stay out of the tiny allocator, whose
// shared blocks can delay finalizers indefinitely.
type gcSentinel struct {
	_ [32]byte
}

func (w *gcWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{}, func(*gcSentinel) {
		w.read()
		if !w.stopped.Load() {
			w.arm()
		}
	})
}

func (w *gcWatch) read() {
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	v := sample[0].Value.Uint64()
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}
