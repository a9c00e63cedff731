package learn

import (
	"math"

	"iobt/internal/sim"
)

// Dataset is a labeled classification problem.
type Dataset struct {
	X [][]float64
	Y []int
	// TrueW is the generating weight vector (bias first), kept for
	// evaluation.
	TrueW []float64
}

// GenConfig parameterizes synthetic data generation.
type GenConfig struct {
	N   int
	Dim int
}

const (
	// genMargin scales the generating weights; larger = more separable.
	genMargin = 2
	// genNoise is the label-flip probability.
	genNoise = 0.05
)

// GenDataset draws a linearly separable (up to genNoise) binary
// dataset from a random hyperplane.
func GenDataset(rng *sim.RNG, cfg GenConfig) *Dataset {
	return genDataset(rng, cfg, genNoise)
}

// genDataset draws the dataset with label-flip probability noise.
func genDataset(rng *sim.RNG, cfg GenConfig, noise float64) *Dataset {
	if cfg.Dim <= 0 {
		cfg.Dim = 5
	}
	w := make([]float64, cfg.Dim+1)
	for i := range w {
		w[i] = rng.Norm(0, genMargin)
	}
	d := &Dataset{TrueW: w}
	for k := 0; k < cfg.N; k++ {
		x := make([]float64, cfg.Dim)
		for i := range x {
			x[i] = rng.Norm(0, 1)
		}
		s := w[0]
		for i := range x {
			s += w[i+1] * x[i]
		}
		y := 0
		if s > 0 {
			y = 1
		}
		if rng.Bool(noise) {
			y = 1 - y
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

// GenDatasetFromW draws points labeled by a fixed hyperplane (used by
// the continual-learning contexts, where each context has its own
// generating concept).
func GenDatasetFromW(rng *sim.RNG, w []float64, n int, noise float64) *Dataset {
	dim := len(w) - 1
	d := &Dataset{TrueW: w}
	for k := 0; k < n; k++ {
		x := make([]float64, dim)
		for i := range x {
			x[i] = rng.Norm(0, 1)
		}
		s := w[0]
		for i := range x {
			s += w[i+1] * x[i]
		}
		y := 0
		if s > 0 {
			y = 1
		}
		if rng.Bool(noise) {
			y = 1 - y
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, y)
	}
	return d
}

// splitSkew is the fraction of examples Split deals by label, the
// non-IID mix every federated experiment trains on.
const splitSkew = 0.3

// Split partitions the dataset into n shards, each a class-skewed
// subsample (non-IID federated data): shard parity biases its label mix
// by splitSkew.
func (d *Dataset) Split(rng *sim.RNG, n int) []*Dataset { return d.split(rng, n, splitSkew) }

// split is Split at any skew: with probability skew an example goes to a
// shard of its label's parity, otherwise to any shard.
func (d *Dataset) split(rng *sim.RNG, n int, skew float64) []*Dataset {
	if n <= 0 {
		n = 1
	}
	shards := make([]*Dataset, n)
	for i := range shards {
		shards[i] = &Dataset{TrueW: d.TrueW}
	}
	perm := rng.Perm(len(d.X))
	for _, idx := range perm {
		// Preferred shard parity by label under skew.
		var s int
		if skew > 0 && rng.Bool(skew) {
			// Send label-1 examples to even shards, label-0 to odd.
			s = rng.Intn((n + 1) / 2)
			if d.Y[idx] == 1 {
				s = s * 2 % n
			} else {
				s = (s*2 + 1) % n
			}
		} else {
			s = rng.Intn(n)
		}
		shards[s].X = append(shards[s].X, d.X[idx])
		shards[s].Y = append(shards[s].Y, d.Y[idx])
	}
	return shards
}

// Len returns the number of examples.
func (d *Dataset) Len() int { return len(d.X) }

// normL2 returns the L2 norm of a vector.
func normL2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}
