package main

import (
	"errors"
	"math"
)

// minBeyond is the number of samples that must lie beyond a percentile for
// it to be reported: with fewer, the value is set by a handful of outliers
// and does not repeat between runs.
const minBeyond = 10

var errTooFewSamples = errors.New("fewer than 10 samples beyond the percentile")

// The benchmark keeps every raw int64 nanosecond sample (no buckets, no
// reservoir) and sorts them with slices.Sort, so the percentiles below are
// exact order statistics.

// percentile returns the nearest-rank q-quantile (0 < q < 1) of sorted
// samples: the smallest sample with at least q of the set at or below it.
// It refuses a percentile with fewer than minBeyond samples above it.
func percentile(sorted []int64, q float64) (int64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, errTooFewSamples
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, errTooFewSamples
	}
	return sorted[rank-1], nil
}

// median returns the exact median of sorted samples (mean of the two
// middle samples for an even count); 0 for an empty set.
func median(sorted []int64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return float64(sorted[n/2])
	}
	return float64(sorted[n/2-1]+sorted[n/2]) / 2
}
