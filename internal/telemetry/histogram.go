package telemetry

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// The histogram is log-bucketed: bucket i spans durations up to 1024<<i
// nanoseconds, so 27 finite buckets cover ~1µs to ~137s with better than
// 2x relative resolution — the right trade for latency distributions,
// where exactness of the tail bucket matters less than a bounded, lock-
// free write path. Anything beyond the last finite bound lands in the
// overflow bucket (the +Inf bucket of the exposition).
const histFiniteBuckets = 27

// Histogram is a lock-free log-bucketed duration histogram. Observe is a
// handful of atomic adds: no locks, no allocation, safe on the decision
// hot path.
type Histogram struct {
	counts   [histFiniteBuckets]atomic.Uint64
	overflow atomic.Uint64
	count    atomic.Uint64
	sum      atomic.Int64 // nanoseconds
}

// bucketFor maps a non-negative nanosecond value to its bucket index, or
// histFiniteBuckets for overflow.
func bucketFor(ns int64) int {
	// Values <= 1024ns land in bucket 0; each further bit doubles the
	// bound.
	b := bits.Len64(uint64(ns) >> 10)
	if b >= histFiniteBuckets {
		return histFiniteBuckets
	}
	return b
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	if b := bucketFor(ns); b == histFiniteBuckets {
		h.overflow.Add(1)
	} else {
		h.counts[b].Add(1)
	}
	h.count.Add(1)
	h.sum.Add(ns)
}

// HistogramSnapshot is a consistent-enough read of the histogram: counts
// are loaded bucket by bucket, so a snapshot taken under concurrent
// observation may be off by in-flight increments — fine for monitoring,
// which is its only consumer.
type HistogramSnapshot struct {
	// Counts holds the finite buckets' counts (not cumulative).
	Counts []uint64
	// Overflow counts observations beyond the last finite bound.
	Overflow uint64
	// Count is the total number of observations (finite + overflow).
	Count uint64
	// Sum is the total observed time in nanoseconds.
	Sum int64
}

// Snapshot reads the histogram.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Counts: make([]uint64, histFiniteBuckets)}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Overflow = h.overflow.Load()
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// upperBoundNs returns bucket i's inclusive upper bound in nanoseconds.
func upperBoundNs(i int) int64 { return 1024 << uint(i) }

// UpperBoundSeconds returns bucket i's upper bound in seconds, the unit of
// the Prometheus exposition.
func (s HistogramSnapshot) UpperBoundSeconds(i int) float64 {
	return float64(upperBoundNs(i)) / 1e9
}

// SumSeconds returns the observed total in seconds.
func (s HistogramSnapshot) SumSeconds() float64 { return float64(s.Sum) / 1e9 }

// Quantile estimates the q-th quantile (0 < q <= 1) as the upper bound of
// the bucket holding the observation of nearest rank ⌈q·n⌉ — a
// log-accurate estimate. It returns 0 with no observations; quantiles that
// fall in the overflow bucket report the last finite bound (the estimate
// saturates rather than inventing a tail).
func (s HistogramSnapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	// Round the rank up only when q·n has a real fractional part, so float
	// noise in an exact product (0.07·100 = 7.000000000000001) does not
	// promote it to the next rank.
	rank := q * float64(s.Count)
	target := uint64(rank)
	if rank-float64(target) > 1e-9 {
		target++
	}
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, c := range s.Counts {
		seen += c
		if seen >= target {
			return time.Duration(upperBoundNs(i))
		}
	}
	return time.Duration(upperBoundNs(histFiniteBuckets - 1))
}

// Mean returns the arithmetic mean of observations, exact (from the sum),
// or 0 with no observations.
func (s HistogramSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / int64(s.Count))
}
