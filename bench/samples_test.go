package main

import (
	"errors"
	"math"
	"slices"
	"testing"
)

func TestPercentileIsExactAndRefusesThinTails(t *testing.T) {
	// 1..2000 ns in scrambled order: every order statistic is known.
	s := make([]int64, 2000)
	for i := range s {
		s[i] = int64((i*7919)%2000 + 1)
	}
	slices.Sort(s)
	if got := median(s); got != 1000.5 {
		t.Errorf("median = %v, want 1000.5", got)
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 1000}, {0.9, 1800}, {0.99, 1980}} {
		got, err := percentile(s, c.q)
		if err != nil || got != c.want {
			t.Errorf("percentile(%v) = %d, %v; want %d", c.q, got, err, c.want)
		}
	}
	// p99.9 of 2000 samples leaves 2 beyond it: refused.
	if _, err := percentile(s, 0.999); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p99.9 of 2000 samples: err = %v, want errTooFewSamples", err)
	}
	// p99 needs 1000 samples: 999 leave 9 beyond, 1000 leave exactly 10.
	if _, err := percentile(s[:999], 0.99); !errors.Is(err, errTooFewSamples) {
		t.Errorf("p99 of 999 samples: err = %v, want errTooFewSamples", err)
	}
	if _, err := percentile(s[:1000], 0.99); err != nil {
		t.Errorf("p99 of 1000 samples refused: %v", err)
	}
	if _, err := percentile(nil, 0.5); !errors.Is(err, errTooFewSamples) {
		t.Errorf("empty set: err = %v", err)
	}
	if got := median([]int64{3, 5, 9}); got != 5 {
		t.Errorf("odd median = %v, want 5", got)
	}
}

// TestQuartilesMatchPython pins the spread rule to the acceptance check's:
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{4, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v %v %v, want 1 2 4", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if math.Abs(q1-0.75)+math.Abs(q2-1.5)+math.Abs(q3-2.25) > 1e-12 {
		t.Errorf("quartiles of 2 = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}
