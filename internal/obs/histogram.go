package obs

import (
	"sync/atomic"
	"time"
)

// Histogram counts observations into a fixed set of buckets with inclusive
// upper bounds, plus an implicit overflow bucket. Bounds are int64 in the
// unit the instrumentation site chooses (nanoseconds for latencies, plain
// counts for batch sizes). Observation is a linear scan over the bounds —
// bucket sets are small (≤ ~20), so the scan beats binary search's branch
// misses — and one atomic add; count and sum are maintained for the mean.
type Histogram struct {
	name   string
	help   string
	bounds []int64
	counts []atomic.Uint64 // len(bounds)+1; last is overflow
	count  atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// DurationBuckets is the default latency bucket set: 100µs to ~13s,
// doubling. Suits both the per-statement costs (sub-ms) and the migration
// phase durations (seconds) this repo simulates.
func DurationBuckets() []int64 {
	bounds := make([]int64, 0, 18)
	for b := int64(100 * time.Microsecond); len(bounds) < 18; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}

// SizeBuckets is the default bucket set for small cardinalities (commit
// group sizes, batch sizes): 1,2,4,...,1024.
func SizeBuckets() []int64 {
	bounds := make([]int64, 0, 11)
	for b := int64(1); b <= 1024; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// HistogramSnapshot is one histogram's frozen state.
type HistogramSnapshot struct {
	Count  uint64   `json:"count"`
	Sum    int64    `json:"sum"`
	Max    int64    `json:"max"`
	Bounds []int64  `json:"bounds"`
	Counts []uint64 `json:"counts"` // len(Bounds)+1; last is overflow
}

// Mean returns Sum/Count (0 for an empty histogram).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Snapshot freezes the histogram. Counts and sum are read without mutual
// exclusion, so a snapshot taken mid-observation can be off by in-flight
// increments — fine for monitoring.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Max:    h.max.Load(),
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts:
// the upper bound of the bucket where the cumulative count crosses q. The
// overflow bucket reports Max.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := uint64(q * float64(s.Count))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < len(s.Bounds) {
				return s.Bounds[i]
			}
			return s.Max
		}
	}
	return s.Max
}
