package learn

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"iobt/internal/sim"
)

func TestSigmoid(t *testing.T) {
	if s := sigmoid(0); math.Abs(s-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %v", s)
	}
	if s := sigmoid(100); s <= 0.99 {
		t.Errorf("sigmoid(100) = %v", s)
	}
	if s := sigmoid(-100); s >= 0.01 {
		t.Errorf("sigmoid(-100) = %v", s)
	}
	// Symmetry.
	if math.Abs(sigmoid(3)+sigmoid(-3)-1) > 1e-12 {
		t.Error("sigmoid not symmetric")
	}
}

// TestModelTrainsOnSeparableData asserts the property over a seed sweep,
// not on one drawn hyperplane. Fifty full-batch steps leave the learned
// direction 0.03-0.11 rad from the generating one, and for Gaussian
// features a hyperplane at angle a misclassifies a/pi of the points, so
// 1-3.5 % training error is the model's own prediction and 0.97 is a
// typical value, not a floor: a 32-seed sweep measured accuracy median
// 0.986, lower quartile 0.984, minimum 0.968 (a draw with an 80/20 class
// split). So the 0.97 is asked of the median, and each seed is asked to
// have learned the boundary rather than the prior: at most a third of
// the majority-class guess's error (worst measured ratio 0.15).
func TestModelTrainsOnSeparableData(t *testing.T) {
	const seeds = 32
	accs := make([]float64, 0, seeds)
	for seed := int64(1); seed <= seeds; seed++ {
		d := GenDataset(sim.NewRNG(seed), GenConfig{N: 500, Dim: 4, Noise: 0})
		m := NewModel(4)
		for epoch := 0; epoch < 50; epoch++ {
			m.SGDStep(d.X, d.Y, 0.5)
		}
		acc := m.Accuracy(d.X, d.Y)
		accs = append(accs, acc)
		ones := 0
		for _, y := range d.Y {
			ones += y
		}
		prior := float64(max(ones, len(d.Y)-ones)) / float64(len(d.Y))
		if 1-acc > (1-prior)/3 {
			t.Errorf("seed %d: training accuracy %.3f against a majority-class guess of %.3f", seed, acc, prior)
		}
	}
	sort.Float64s(accs)
	if median := accs[seeds/2]; median < 0.97 {
		t.Errorf("median training accuracy over %d seeds = %.3f on separable data", seeds, median)
	}
}

// loss is the mean logistic loss of m over a dataset: the quantity SGD
// descends.
func loss(m *Model, X [][]float64, Y []int) float64 {
	if len(X) == 0 {
		return 0
	}
	total := 0.0
	for i := range X {
		p := m.Predict(X[i])
		p = math.Min(math.Max(p, 1e-12), 1-1e-12)
		if Y[i] == 1 {
			total += -math.Log(p)
		} else {
			total += -math.Log(1 - p)
		}
	}
	return total / float64(len(X))
}

// bayesAccuracy is the accuracy of d's generating hyperplane itself:
// the noise ceiling.
func bayesAccuracy(d *Dataset) float64 { return (&Model{W: d.TrueW}).Accuracy(d.X, d.Y) }

func TestLossDecreasesUnderSGD(t *testing.T) {
	rng := sim.NewRNG(2)
	d := GenDataset(rng, GenConfig{N: 300, Dim: 5, Noise: 0.05})
	m := NewModel(5)
	prev := loss(m, d.X, d.Y)
	for epoch := 0; epoch < 20; epoch++ {
		m.SGDStep(d.X, d.Y, 0.3)
		cur := loss(m, d.X, d.Y)
		if cur > prev+1e-6 {
			t.Fatalf("loss increased at epoch %d: %v -> %v", epoch, prev, cur)
		}
		prev = cur
	}
}

func TestModelEdges(t *testing.T) {
	m := NewModel(3)
	if len(m.W) != 4 {
		t.Errorf("weights = %d, want 3 features + bias", len(m.W))
	}
	if m.Predict([]float64{1, 2, 3}) != 0.5 {
		t.Error("zero model should predict 0.5")
	}
	if m.Accuracy(nil, nil) != 0 || loss(m, nil, nil) != 0 {
		t.Error("empty dataset metrics should be 0")
	}
	m.SGDStep(nil, nil, 0.1) // no-op, no panic
	c := m.Clone()
	c.W[0] = 99
	if m.W[0] == 99 {
		t.Error("Clone aliases weights")
	}
	// Short feature vector must not panic.
	_ = m.Predict([]float64{1})
	grad := make([]float64, 4)
	m.Gradient(grad, []float64{1}, 1)
}

func TestGenDatasetNoiseCeiling(t *testing.T) {
	rng := sim.NewRNG(3)
	clean := GenDataset(rng, GenConfig{N: 2000, Dim: 5, Noise: 0})
	if acc := bayesAccuracy(clean); acc != 1 {
		t.Errorf("clean Bayes accuracy = %v", acc)
	}
	noisy := GenDataset(rng, GenConfig{N: 2000, Dim: 5, Noise: 0.2})
	acc := bayesAccuracy(noisy)
	if acc < 0.75 || acc > 0.85 {
		t.Errorf("noisy Bayes accuracy = %v, want ~0.8", acc)
	}
}

func TestSplitConservesData(t *testing.T) {
	rng := sim.NewRNG(4)
	d := GenDataset(rng, GenConfig{N: 1000, Dim: 3, Noise: 0})
	shards := d.Split(rng, 7, 0)
	total := 0
	for _, s := range shards {
		total += s.Len()
	}
	if total != 1000 {
		t.Errorf("split lost data: %d", total)
	}
	if len(shards) != 7 {
		t.Errorf("shards = %d", len(shards))
	}
}

func TestSplitSkewProducesNonIID(t *testing.T) {
	rng := sim.NewRNG(5)
	d := GenDataset(rng, GenConfig{N: 4000, Dim: 3, Noise: 0})
	shards := d.Split(rng, 4, 0.9)
	// Class balance should differ strongly between even and odd shards.
	frac1 := func(s *Dataset) float64 {
		if s.Len() == 0 {
			return 0
		}
		n := 0
		for _, y := range s.Y {
			n += y
		}
		return float64(n) / float64(s.Len())
	}
	if math.Abs(frac1(shards[0])-frac1(shards[1])) < 0.2 {
		t.Errorf("skewed shards too similar: %.2f vs %.2f", frac1(shards[0]), frac1(shards[1]))
	}
}

// Property: gradient of loss at a point actually descends (finite check:
// loss after one small step never increases much on the same batch).
func TestSGDStepDescends(t *testing.T) {
	prop := func(seed int64) bool {
		rng := sim.NewRNG(seed)
		d := GenDataset(rng, GenConfig{N: 50, Dim: 3, Noise: 0.1})
		m := NewModel(3)
		// Random start.
		for i := range m.W {
			m.W[i] = rng.Norm(0, 1)
		}
		before := loss(m, d.X, d.Y)
		m.SGDStep(d.X, d.Y, 0.05)
		after := loss(m, d.X, d.Y)
		return after <= before+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
