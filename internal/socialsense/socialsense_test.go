package socialsense

import (
	"testing"
	"testing/quick"

	"iobt/internal/sim"
)

func genTest(seed int64, mutate func(*GenConfig)) *Dataset {
	cfg := DefaultGenConfig()
	cfg.Sources = 100
	cfg.Claims = 200
	if mutate != nil {
		mutate(&cfg)
	}
	return Generate(sim.NewRNG(seed), cfg)
}

func TestGenerateShape(t *testing.T) {
	d := genTest(1, nil)
	if d.NumSources != 100 || d.NumClaims != 200 {
		t.Fatalf("shape = %d x %d", d.NumSources, d.NumClaims)
	}
	if len(d.Reports) == 0 {
		t.Fatal("no reports generated")
	}
	for _, r := range d.Reports {
		if r.Source < 0 || r.Source >= d.NumSources || r.Claim < 0 || r.Claim >= d.NumClaims {
			t.Fatalf("report out of range: %+v", r)
		}
	}
	// Expected report volume ~ sources*claims*observeProb.
	want := 100 * 200 * observeProb
	if float64(len(d.Reports)) < want*0.7 || float64(len(d.Reports)) > want*1.3 {
		t.Errorf("report count = %d, want ~%.0f", len(d.Reports), want)
	}
}

func TestGenerateColluders(t *testing.T) {
	d := genTest(2, func(c *GenConfig) { c.ColluderFrac = 0.2 })
	n := 0
	for s, coll := range d.Colluder {
		if coll {
			n++
			if d.Reliability[s] > 0.1 {
				t.Errorf("colluder %d has reliability %v", s, d.Reliability[s])
			}
		}
	}
	if n != 20 {
		t.Errorf("colluders = %d, want 20", n)
	}
}

func TestEMBeatsMajorityUnderHeterogeneity(t *testing.T) {
	// Heterogeneous reliabilities: many weak sources, a few strong.
	d := genTest(3, func(c *GenConfig) {
		c.ReliabilityAlpha = 1.2
		c.ReliabilityBeta = 0.8 // mean 0.6, wide spread
	})
	maj := Accuracy(MajorityVote(d), d.Truth)
	em := EM(d)
	emAcc := Accuracy(em.Estimates(), d.Truth)
	if emAcc <= maj {
		t.Errorf("EM (%.3f) should beat majority (%.3f) under heterogeneous reliability", emAcc, maj)
	}
	if emAcc < 0.8 {
		t.Errorf("EM accuracy = %.3f, want >= 0.8", emAcc)
	}
}

func TestEMHighAccuracyOnCleanData(t *testing.T) {
	d := genTest(4, nil) // mostly reliable sources
	em := EM(d)
	if acc := Accuracy(em.Estimates(), d.Truth); acc < 0.95 {
		t.Errorf("EM accuracy on clean data = %.3f", acc)
	}
	if em.Iterations <= 0 || em.Iterations > 50 {
		t.Errorf("iterations = %d", em.Iterations)
	}
}

func TestEMReliabilityEstimates(t *testing.T) {
	// 540 claims at observeProb give each source ~81 reports to be
	// scored on.
	d := genTest(5, func(c *GenConfig) { c.Claims = 540 })
	em := EM(d)
	rmse := ReliabilityRMSE(em.Reliability, d.Reliability)
	if rmse > 0.12 {
		t.Errorf("reliability RMSE = %.3f, want <= 0.12", rmse)
	}
}

func TestEMDegradesGracefullyWithCollusion(t *testing.T) {
	var prev float64 = 1.1
	for _, frac := range []float64{0, 0.2, 0.4} {
		d := genTest(6, func(c *GenConfig) { c.ColluderFrac = frac })
		acc := Accuracy(EM(d).Estimates(), d.Truth)
		if acc > prev+0.05 {
			t.Errorf("accuracy rose with more collusion: %.3f at frac=%.1f (prev %.3f)", acc, frac, prev)
		}
		if frac <= 0.2 && acc < 0.85 {
			t.Errorf("EM accuracy = %.3f at collusion %.1f, want >= 0.85", acc, frac)
		}
		prev = acc
	}
}

func TestEMIdentifiesColluders(t *testing.T) {
	d := genTest(7, func(c *GenConfig) { c.ColluderFrac = 0.2 })
	em := EM(d)
	for s, coll := range d.Colluder {
		if coll && em.Reliability[s] > 0.4 {
			t.Errorf("colluder %d estimated reliability %.3f, want low", s, em.Reliability[s])
		}
	}
}

func TestAccuracyEdges(t *testing.T) {
	if Accuracy(nil, nil) != 0 {
		t.Error("empty accuracy should be 0")
	}
	if a := Accuracy([]bool{true}, []bool{true, false}); a != 0.5 {
		t.Errorf("short estimate accuracy = %v, want 0.5 (unscored counts wrong)", a)
	}
}

func TestReliabilityRMSEEdges(t *testing.T) {
	if ReliabilityRMSE(nil, nil) != 0 {
		t.Error("empty RMSE should be 0")
	}
	if r := ReliabilityRMSE([]float64{0.5}, []float64{0.5}); r != 0 {
		t.Errorf("identical RMSE = %v", r)
	}
}

// Property: EM truth probabilities are valid probabilities and the
// estimate count matches the claim count.
func TestEMProbabilityBounds(t *testing.T) {
	prop := func(seed int64) bool {
		cfg := DefaultGenConfig()
		cfg.Sources = 30
		cfg.Claims = 40
		d := Generate(sim.NewRNG(seed), cfg)
		em := EM(d)
		if len(em.TruthProb) != d.NumClaims {
			return false
		}
		for _, p := range em.TruthProb {
			if p < 0 || p > 1 {
				return false
			}
		}
		for _, a := range em.Reliability {
			if a < 0 || a > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestMajorityVoteNoReports(t *testing.T) {
	d := &Dataset{NumSources: 2, NumClaims: 3, Truth: []bool{true, false, true}}
	got := MajorityVote(d)
	for _, v := range got {
		if v {
			t.Error("claims without reports should default false")
		}
	}
}
