package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// samples is one latency distribution, in milliseconds.
type samples struct{ ms []float64 }

func (s *samples) add(d time.Duration) { s.ms = append(s.ms, float64(d)/1e6) }

func (s *samples) merge(o *samples) { s.ms = append(s.ms, o.ms...) }

func (s *samples) n() int { return len(s.ms) }

// rank is the nearest-rank index of quantile q in a sample of n values.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n))) - 1
	if r < 0 {
		r = 0
	}
	return r
}

// pct returns the nearest-rank q-quantile (0 for an empty sample).
func (s *samples) pct(q float64) float64 { return quantile(s.ms, q) }

// beyond is how many samples lie past the q-quantile's rank: the tail the
// percentile rests on.
func (s *samples) beyond(q float64) int {
	if len(s.ms) == 0 {
		return 0
	}
	return len(s.ms) - 1 - rank(len(s.ms), q)
}

// minTail is the tail-sample rule: a reported high percentile must have at
// least this many samples beyond it.
const minTail = 10

// chunkSize is the smallest sample whose q-quantile has minTail samples
// beyond it: 1000 for p99, 200 for p95.
func chunkSize(q float64) int {
	return int(math.Round(minTail / (1 - q)))
}

// The host steals CPU and disk time in bursts of a few seconds (0–27% of
// each second's CPU on the 2-vCPU VM this benchmark was sized on, with
// fsync p99 moving 3x between back-to-back batches). Interference only ever
// slows an operation, and a run-long figure moves with the share of the run
// the bursts happen to cover. So latencies and rates are measured over short
// chunks of a fixed operation count, and the run reports the quiet
// quartile: the lower quartile of chunk latencies, the upper quartile of
// chunk rates. A change that slows every operation moves every chunk and
// shows in full; a stall confined to a quarter of the chunks does not.

// quantile returns the nearest-rank q-quantile of xs (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

// chunkPct splits s, in arrival order, into consecutive chunks of size
// samples (a short remainder is dropped) and returns the lower quartile
// over chunks of each chunk's q-quantile.
func chunkPct(s *samples, q float64, size int) float64 {
	var per []float64
	for lo := 0; lo+size <= s.n(); lo += size {
		c := samples{ms: s.ms[lo : lo+size]}
		per = append(per, c.pct(q))
	}
	return quantile(per, 0.25)
}

// median of a small set of per-round values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// gcWindow brackets a timed phase with runtime.MemStats snapshots.
type gcWindow struct{ before runtime.MemStats }

func startGC() *gcWindow {
	w := &gcWindow{}
	runtime.ReadMemStats(&w.before)
	return w
}

// gcDelta is what the Go runtime did during a timed phase.
type gcDelta struct {
	cycles     uint32
	pauseMs    float64
	allocBytes uint64
}

func (w *gcWindow) stop() gcDelta {
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return gcDelta{
		cycles:     after.NumGC - w.before.NumGC,
		pauseMs:    float64(after.PauseTotalNs-w.before.PauseTotalNs) / 1e6,
		allocBytes: after.TotalAlloc - w.before.TotalAlloc,
	}
}

// liveHeapMB is HeapInuse after a full collection, in MiB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}
