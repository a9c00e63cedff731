package anomaly

import (
	"testing"

	"iobt/internal/sim"
)

func TestDetectorFlagsSpike(t *testing.T) {
	d := NewDetector(0.1, 3)
	rng := sim.NewRNG(1)
	for i := 0; i < 200; i++ {
		d.Observe(rng.Norm(10, 1))
	}
	if d.Score(10.5) > d.Threshold {
		t.Error("normal value flagged")
	}
	if d.Score(30) <= d.Threshold {
		t.Error("20-sigma spike not flagged")
	}
}

func TestDetectorRobustToBurst(t *testing.T) {
	d := NewDetector(0.1, 3)
	rng := sim.NewRNG(2)
	for i := 0; i < 200; i++ {
		d.Observe(rng.Norm(10, 1))
	}
	// A burst of attack values must not become the new normal.
	for i := 0; i < 20; i++ {
		d.Observe(100)
	}
	if d.Score(100) <= d.Threshold {
		t.Error("baseline dragged to the attack value")
	}
	if d.Score(10) > d.Threshold {
		t.Error("true normal now flagged after burst")
	}
}

func TestDetectorColdStart(t *testing.T) {
	d := NewDetector(0.1, 3)
	if d.Score(42) != 0 {
		t.Error("cold detector should score 0")
	}
	d.Observe(1)
	if d.Score(100) != 0 {
		t.Error("single-sample detector should withhold judgment")
	}
}

func TestDetectorZeroVariance(t *testing.T) {
	d := NewDetector(0.1, 3)
	for i := 0; i < 10; i++ {
		d.Observe(5)
	}
	if d.Score(5) != 0 {
		t.Error("exact match on constant stream should score 0")
	}
	if d.Score(6) <= d.Threshold {
		t.Error("any deviation from a constant stream is anomalous")
	}
}

func TestDetectorDefaults(t *testing.T) {
	d := NewDetector(-1, 0)
	if d.alpha != 0.05 || d.Threshold != 3 {
		t.Error("invalid params should default")
	}
}

func TestAttentionPersistentBeatsDecoy(t *testing.T) {
	a := NewAttention()
	rng := sim.NewRNG(3)
	// Warm up three situations.
	for i := 0; i < 100; i++ {
		a.Observe("quiet", rng.Norm(0, 1))
		a.Observe("decoy", rng.Norm(0, 1))
		a.Observe("threat", rng.Norm(0, 1))
	}
	// Decoy: one huge spike. Threat: sustained moderate anomaly.
	a.Observe("decoy", 1000)
	for i := 0; i < 8; i++ {
		a.Observe("threat", 25)
		a.Observe("decoy", rng.Norm(0, 1))
		a.Observe("quiet", rng.Norm(0, 1))
	}
	ranked := a.Ranked()
	if len(ranked) == 0 || ranked[0] != "threat" {
		t.Fatalf("ranked = %v, want threat first", ranked)
	}
	for _, name := range ranked {
		if name == "decoy" {
			t.Error("single-spike decoy captured attention")
		}
		if name == "quiet" {
			t.Error("quiet situation flagged")
		}
	}
}

func TestAttentionEmpty(t *testing.T) {
	a := NewAttention()
	if len(a.Ranked()) != 0 {
		t.Error("empty attention should rank nothing")
	}
}

func TestSourceAuditFindsBiasedSource(t *testing.T) {
	audit := NewSourceAudit()
	rng := sim.NewRNG(4)
	for round := 0; round < 50; round++ {
		truth := rng.Norm(20, 2)
		reports := map[int]float64{}
		for src := 0; src < 9; src++ {
			reports[src] = truth + rng.Norm(0, 0.5)
		}
		reports[9] = truth + 15 // systematically biased source
		audit.Round(reports)
	}
	bad := audit.BadSources()
	if len(bad) != 1 || bad[0] != 9 {
		t.Errorf("BadSources = %v, want [9]", bad)
	}
	if audit.MeanDeviation(9) < audit.MeanDeviation(0)*3 {
		t.Error("biased source deviation not dominant")
	}
}

func TestSourceAuditEdges(t *testing.T) {
	audit := NewSourceAudit()
	audit.Round(nil)
	if audit.BadSources() != nil {
		t.Error("empty audit should return nil")
	}
	if audit.MeanDeviation(5) != 0 {
		t.Error("unknown source deviation should be 0")
	}
	// All sources identical: nobody is bad.
	audit.Round(map[int]float64{1: 5, 2: 5, 3: 5})
	if len(audit.BadSources()) != 0 {
		t.Error("identical sources flagged")
	}
}
