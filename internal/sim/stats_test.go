package sim

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSeriesBasics(t *testing.T) {
	var s Series
	for _, v := range []float64{5, 1, 3, 2, 4} {
		s.Add(v)
	}
	if s.N() != 5 {
		t.Errorf("N = %d", s.N())
	}
	if s.Sum() != 15 {
		t.Errorf("Sum = %v", s.Sum())
	}
	if s.Mean() != 3 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Min() != 1 || s.Max() != 5 {
		t.Errorf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Percentile(50) != 3 {
		t.Errorf("P50 = %v", s.Percentile(50))
	}
}

func TestSeriesEmpty(t *testing.T) {
	var s Series
	if s.Mean() != 0 || s.Min() != 0 || s.Max() != 0 || s.Percentile(50) != 0 || s.Var() != 0 {
		t.Error("empty series should return zeros")
	}
}

func TestSeriesAddAfterQuery(t *testing.T) {
	var s Series
	s.Add(10)
	_ = s.Percentile(50) // forces sort
	s.Add(1)
	if s.Min() != 1 {
		t.Errorf("Min after re-add = %v, want 1", s.Min())
	}
}

func TestSeriesVar(t *testing.T) {
	var s Series
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if math.Abs(s.Var()-4) > 1e-12 {
		t.Errorf("Var = %v, want 4", s.Var())
	}
	if math.Abs(s.Stddev()-2) > 1e-12 {
		t.Errorf("Stddev = %v, want 2", s.Stddev())
	}
}

func TestAddDuration(t *testing.T) {
	var s Series
	s.AddDuration(1500 * time.Millisecond)
	if s.Mean() != 1.5 {
		t.Errorf("Mean = %v, want 1.5", s.Mean())
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotone(t *testing.T) {
	prop := func(vals []float64) bool {
		var s Series
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
		}
		if s.N() == 0 {
			return true
		}
		prev := s.Percentile(0)
		for p := 5.0; p <= 100; p += 5 {
			cur := s.Percentile(p)
			if cur < prev {
				return false
			}
			prev = cur
		}
		return s.Percentile(0) >= s.Min() && s.Percentile(100) <= s.Max()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: nearest-rank percentile equals the sorted element directly.
func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{15, 20, 35, 40, 50}
	var s Series
	for _, v := range vals {
		s.Add(v)
	}
	sort.Float64s(vals)
	if got := s.Percentile(30); got != 20 {
		t.Errorf("P30 = %v, want 20", got)
	}
	if got := s.Percentile(40); got != 20 {
		t.Errorf("P40 = %v, want 20", got)
	}
	if got := s.Percentile(100); got != 50 {
		t.Errorf("P100 = %v, want 50", got)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-3) // ignored
	if c.Value() != 5 {
		t.Errorf("Value = %d, want 5", c.Value())
	}
}

func TestSummaryString(t *testing.T) {
	var s Series
	s.Add(1)
	s.Add(2)
	str := s.Summarize().String()
	if str == "" {
		t.Error("empty summary string")
	}
}
