package sim

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Series accumulates scalar observations and answers summary queries.
// The zero value is ready to use.
type Series struct {
	vals   []float64
	sorted bool
	sum    float64
}

// Add records one observation.
func (s *Series) Add(v float64) {
	s.vals = append(s.vals, v)
	s.sorted = false
	s.sum += v
}

// AddDuration records a duration in seconds.
func (s *Series) AddDuration(d time.Duration) { s.Add(d.Seconds()) }

// N returns the number of observations.
func (s *Series) N() int { return len(s.vals) }

// Sum returns the sum of all observations.
func (s *Series) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty series.
func (s *Series) Mean() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	return s.sum / float64(len(s.vals))
}

// Var returns the population variance, or 0 for fewer than two samples.
func (s *Series) Var() float64 {
	n := len(s.vals)
	if n < 2 {
		return 0
	}
	m := s.Mean()
	acc := 0.0
	for _, v := range s.vals {
		d := v - m
		acc += d * d
	}
	return acc / float64(n)
}

// Stddev returns the population standard deviation.
func (s *Series) Stddev() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observation, or 0 for an empty series.
func (s *Series) Min() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[0]
}

// Max returns the largest observation, or 0 for an empty series.
func (s *Series) Max() float64 {
	if len(s.vals) == 0 {
		return 0
	}
	s.ensureSorted()
	return s.vals[len(s.vals)-1]
}

// Percentile returns the p-th percentile (0..100) using nearest-rank on
// the sorted data, or 0 for an empty series.
func (s *Series) Percentile(p float64) float64 {
	n := len(s.vals)
	if n == 0 {
		return 0
	}
	s.ensureSorted()
	if p <= 0 {
		return s.vals[0]
	}
	if p >= 100 {
		return s.vals[n-1]
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s.vals[rank-1]
}

func (s *Series) ensureSorted() {
	if !s.sorted {
		sort.Float64s(s.vals)
		s.sorted = true
	}
}

// Summary is a compact five-number summary of a Series.
type Summary struct {
	N              int
	Mean, Min, Max float64
	P50, P90, P99  float64
	Stddev         float64
}

// Summarize computes a Summary snapshot.
func (s *Series) Summarize() Summary {
	return Summary{
		N:      s.N(),
		Mean:   s.Mean(),
		Min:    s.Min(),
		Max:    s.Max(),
		P50:    s.Percentile(50),
		P90:    s.Percentile(90),
		P99:    s.Percentile(99),
		Stddev: s.Stddev(),
	}
}

// String renders the summary on one line.
func (m Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.4g p50=%.4g p90=%.4g p99=%.4g min=%.4g max=%.4g sd=%.4g",
		m.N, m.Mean, m.P50, m.P90, m.P99, m.Min, m.Max, m.Stddev)
}

// Counter is a monotonically increasing count.
type Counter struct {
	n uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Add adds delta (negative deltas are ignored).
func (c *Counter) Add(delta int) {
	if delta > 0 {
		c.n += uint64(delta)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n }
