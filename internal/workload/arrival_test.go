package workload

import (
	"math"
	"testing"
	"time"
)

// TestInterarrivalPoissonDistribution pins the arrival process to an
// exponential with the configured mean: sample mean within 1% and
// coefficient of variation within 2% of 1 (the exponential's signature —
// a uniform or normal spacing would fail the CV bound immediately).
func TestInterarrivalPoissonDistribution(t *testing.T) {
	const n = 200000
	mean := 10 * time.Millisecond
	g := NewGenerator(Config{Users: 1, Resources: 1, Roles: 1, MeanInterarrival: mean, Seed: 11})
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		d := float64(g.NextInterarrival())
		sum += d
		sumSq += d * d
	}
	m := sum / n
	if r := m / float64(mean); r < 0.99 || r > 1.01 {
		t.Errorf("sample mean = %v, want %v within 1%%", time.Duration(m), mean)
	}
	variance := sumSq/n - m*m
	cv := math.Sqrt(variance) / m
	if cv < 0.98 || cv > 1.02 {
		t.Errorf("coefficient of variation = %.4f, want ~1 (exponential)", cv)
	}
}
