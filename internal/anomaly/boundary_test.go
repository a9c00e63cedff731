package anomaly

import "testing"

// TestDetectorBoundaries drives the streaming z-score detector through
// its edge regimes: cold start, constant (zero-variance) streams,
// parameter clamping, and the ramp-up/freeze transition.
func TestDetectorBoundaries(t *testing.T) {
	t.Run("cold-start-scores-zero", func(t *testing.T) {
		d := NewDetector(0.1, 3)
		if s := d.Score(1e9); s != 0 {
			t.Errorf("score before two observations = %v, want 0", s)
		}
		d.Observe(5)
		if s := d.Score(1e9); s != 0 {
			t.Errorf("score after one observation = %v, want 0", s)
		}
	})

	t.Run("constant-stream", func(t *testing.T) {
		d := NewDetector(0.1, 3)
		for i := 0; i < 50; i++ {
			d.Observe(7)
		}
		if s := d.Score(7); s != 0 {
			t.Errorf("score of the constant value = %v, want 0", s)
		}
		// Any deviation from a zero-variance baseline is maximally
		// anomalous.
		if d.Score(7.001) <= d.Threshold {
			t.Error("deviation from constant stream not anomalous")
		}
	})

	t.Run("param-clamping", func(t *testing.T) {
		for _, d := range []*Detector{
			NewDetector(0, 0), NewDetector(-1, -2), NewDetector(1, 3), NewDetector(2, 0),
		} {
			if d.Threshold <= 0 {
				t.Errorf("threshold not clamped: %v", d.Threshold)
			}
			if d.alpha <= 0 || d.alpha >= 1 {
				t.Errorf("alpha not clamped: %v", d.alpha)
			}
		}
	})

	t.Run("frozen-baseline-resists-attack-burst", func(t *testing.T) {
		d := NewDetector(0.1, 3)
		for i := 0; i < 40; i++ {
			d.Observe(10 + 0.1*float64(i%5)) // settled normal around 10
		}
		// A sustained burst of attack values must stay anomalous: the
		// frozen baseline refuses to absorb them.
		for i := 0; i < 20; i++ {
			if d.Score(1000) <= d.Threshold {
				t.Fatalf("attack value legitimized after %d observations", i)
			}
			d.Observe(1000)
		}
	})
}

// TestAttentionBoundaries covers the attention service with no
// observations and its one-shot-decoy vs sustained-anomaly
// discrimination.
func TestAttentionBoundaries(t *testing.T) {
	t.Run("no-observations", func(t *testing.T) {
		a := NewAttention()
		if r := a.Ranked(); len(r) != 0 {
			t.Errorf("empty service ranked %v", r)
		}
	})

	t.Run("single-spike-not-ranked", func(t *testing.T) {
		a := NewAttention()
		for i := 0; i < 40; i++ {
			a.Observe("decoy", 5)
		}
		a.Observe("decoy", 500) // one-shot distraction
		for i := 0; i < 5; i++ {
			a.Observe("decoy", 5)
		}
		if r := a.Ranked(); len(r) != 0 {
			t.Errorf("one-shot spike earned attention: %v", r)
		}
	})

	t.Run("sustained-anomaly-ranked", func(t *testing.T) {
		a := NewAttention()
		for i := 0; i < 40; i++ {
			a.Observe("real", 5)
		}
		for i := 0; i < 5; i++ {
			a.Observe("real", 500)
		}
		r := a.Ranked()
		if len(r) != 1 || r[0] != "real" {
			t.Errorf("sustained anomaly not ranked: %v", r)
		}
	})
}

// TestSourceAuditBoundaries covers the audit's degenerate inputs: no
// rounds, an empty round, a single source, and perfect consensus.
func TestSourceAuditBoundaries(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		s := NewSourceAudit()
		s.Round(nil)
		s.Round(map[int]float64{})
		if bad := s.BadSources(); bad != nil {
			t.Errorf("empty audit flagged %v", bad)
		}
		if d := s.MeanDeviation(7); d != 0 {
			t.Errorf("unknown source deviation = %v, want 0", d)
		}
	})

	t.Run("single-source-is-its-own-consensus", func(t *testing.T) {
		s := NewSourceAudit()
		s.Round(map[int]float64{1: 42})
		if d := s.MeanDeviation(1); d != 0 {
			t.Errorf("single source deviation = %v, want 0", d)
		}
	})

	t.Run("perfect-consensus-flags-nobody", func(t *testing.T) {
		s := NewSourceAudit()
		for i := 0; i < 5; i++ {
			s.Round(map[int]float64{1: 10, 2: 10, 3: 10})
		}
		if bad := s.BadSources(); len(bad) != 0 {
			t.Errorf("perfect consensus flagged %v", bad)
		}
	})

	t.Run("liar-flagged-worst-first", func(t *testing.T) {
		s := NewSourceAudit()
		for i := 0; i < 10; i++ {
			s.Round(map[int]float64{1: 10, 2: 10.1, 3: 9.9, 4: 50, 5: 30})
		}
		bad := s.BadSources()
		if len(bad) != 2 || bad[0] != 4 || bad[1] != 5 {
			t.Errorf("BadSources = %v, want [4 5] (worst first)", bad)
		}
	})
}
