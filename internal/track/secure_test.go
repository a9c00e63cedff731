package track

import (
	"testing"
	"testing/quick"

	"iobt/internal/geo"
	"iobt/internal/sim"
)

// contaminated builds n detections of a target at truth, the first bad
// of which are attacker-controlled with a large bias.
func contaminated(rng *sim.RNG, truth geo.Point, n, bad int, bias float64) []Detection {
	dets := make([]Detection, 0, n)
	for i := 0; i < n; i++ {
		p := truth.Add(geo.Vec{DX: rng.Norm(0, 2), DY: rng.Norm(0, 2)})
		if i < bad {
			p = p.Add(geo.Vec{DX: bias, DY: -bias})
		}
		dets = append(dets, Detection{Pos: p, Var: 4, Sensor: int32(i)})
	}
	return dets
}

func TestMedianFusionResistsMinorityAttack(t *testing.T) {
	rng := sim.NewRNG(1)
	truth := geo.Point{X: 100, Y: 100}
	dets := contaminated(rng, truth, 9, 4, 500) // 4 of 9 compromised, huge bias
	mean, ok := FuseMean(dets)
	if !ok {
		t.Fatal("mean fusion failed")
	}
	med, ok := FuseMedian(dets)
	if !ok {
		t.Fatal("median fusion failed")
	}
	if mean.Pos.Dist(truth) < 100 {
		t.Errorf("mean unexpectedly resisted the attack: err %.1f", mean.Pos.Dist(truth))
	}
	if d := med.Pos.Dist(truth); d > 10 {
		t.Errorf("median fusion error = %.1f m under 4/9 contamination", d)
	}
}

func TestMedianFusionFailsPastMajority(t *testing.T) {
	rng := sim.NewRNG(2)
	truth := geo.Point{X: 0, Y: 0}
	dets := contaminated(rng, truth, 9, 5, 500) // majority compromised
	med, _ := FuseMedian(dets)
	if med.Pos.Dist(truth) < 100 {
		t.Error("median resisted a majority attack — impossible; check the model")
	}
}

func TestFuseEmpty(t *testing.T) {
	if _, ok := FuseMean(nil); ok {
		t.Error("mean of nothing")
	}
	if _, ok := FuseMedian(nil); ok {
		t.Error("median of nothing")
	}
}

func TestFuseVarianceShrinks(t *testing.T) {
	rng := sim.NewRNG(3)
	dets := contaminated(rng, geo.Point{}, 9, 0, 0)
	mean, _ := FuseMean(dets)
	med, _ := FuseMedian(dets)
	if mean.Var >= dets[0].Var || med.Var >= dets[0].Var {
		t.Errorf("fusion did not reduce variance: mean %.2f median %.2f raw %.2f",
			mean.Var, med.Var, dets[0].Var)
	}
	if med.Var <= mean.Var {
		t.Error("median should be (slightly) less efficient than mean")
	}
}

func TestFlagOutliers(t *testing.T) {
	rng := sim.NewRNG(4)
	dets := contaminated(rng, geo.Point{X: 50, Y: 50}, 9, 2, 300)
	flagged := FlagOutliers(dets)
	if len(flagged) != 2 {
		t.Fatalf("flagged = %v, want the 2 attackers", flagged)
	}
	for _, i := range flagged {
		if i >= 2 {
			t.Errorf("honest sensor %d flagged", i)
		}
	}
	// Clean data: nothing flagged.
	clean := contaminated(rng, geo.Point{}, 9, 0, 0)
	if got := FlagOutliers(clean); len(got) != 0 {
		t.Errorf("clean data flagged: %v", got)
	}
	if FlagOutliers(clean[:2]) != nil {
		t.Error("too few detections should flag nothing")
	}
}

// Property: median fusion of an odd, strictly-minority-contaminated set
// always lands within the honest points' bounding box.
func TestMedianFusionBoundingProperty(t *testing.T) {
	prop := func(seed int64, biasRaw uint16) bool {
		rng := sim.NewRNG(seed)
		bias := float64(biasRaw)
		truth := geo.Point{X: 0, Y: 0}
		dets := contaminated(rng, truth, 7, 3, bias)
		med, _ := FuseMedian(dets)
		// Honest samples are N(0,2): the median must stay within their
		// span regardless of bias size.
		minX, maxX := 1e18, -1e18
		minY, maxY := 1e18, -1e18
		for _, d := range dets[3:] {
			minX = minf(minX, d.Pos.X)
			maxX = maxf(maxX, d.Pos.X)
			minY = minf(minY, d.Pos.Y)
			maxY = maxf(maxY, d.Pos.Y)
		}
		// Bias pushes +X/-Y, so the median can touch but not exceed the
		// honest extremes in the attack direction.
		return med.Pos.X <= maxX+1e-9 && med.Pos.Y >= minY-1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
