package learn

import "sort"

// Aggregator combines per-worker model weights into a global update.
type Aggregator interface {
	// Name identifies the aggregator in result tables.
	Name() string
	// Aggregate combines the workers' weight vectors (all same length).
	Aggregate(updates [][]float64) []float64
}

// MeanAgg is plain federated averaging (FedAvg) — the non-robust
// baseline that Byzantine workers poison.
type MeanAgg struct{}

// Name implements Aggregator.
func (MeanAgg) Name() string { return "fedavg" }

// Aggregate implements Aggregator.
func (MeanAgg) Aggregate(updates [][]float64) []float64 {
	if len(updates) == 0 {
		return nil
	}
	out := make([]float64, len(updates[0]))
	for _, u := range updates {
		for i := range out {
			out[i] += u[i]
		}
	}
	for i := range out {
		out[i] /= float64(len(updates))
	}
	return out
}

// MedianAgg takes the coordinate-wise median — robust to < 50%
// arbitrary corruption per coordinate.
type MedianAgg struct{}

// Name implements Aggregator.
func (MedianAgg) Name() string { return "median" }

// Aggregate implements Aggregator.
func (MedianAgg) Aggregate(updates [][]float64) []float64 {
	if len(updates) == 0 {
		return nil
	}
	dim := len(updates[0])
	out := make([]float64, dim)
	col := make([]float64, len(updates))
	for i := 0; i < dim; i++ {
		for j, u := range updates {
			col[j] = u[i]
		}
		sort.Float64s(col)
		n := len(col)
		if n%2 == 1 {
			out[i] = col[n/2]
		} else {
			out[i] = (col[n/2-1] + col[n/2]) / 2
		}
	}
	return out
}

// TrimmedMeanAgg drops the K largest and K smallest values per
// coordinate before averaging.
type TrimmedMeanAgg struct {
	// K is the per-side trim count; it is clamped so at least one value
	// survives.
	K int
}

// Name implements Aggregator.
func (TrimmedMeanAgg) Name() string { return "trimmed" }

// Aggregate implements Aggregator.
func (a TrimmedMeanAgg) Aggregate(updates [][]float64) []float64 {
	if len(updates) == 0 {
		return nil
	}
	k := a.K
	if k < 0 {
		k = 0
	}
	for 2*k >= len(updates) {
		k--
	}
	dim := len(updates[0])
	out := make([]float64, dim)
	col := make([]float64, len(updates))
	for i := 0; i < dim; i++ {
		for j, u := range updates {
			col[j] = u[i]
		}
		sort.Float64s(col)
		kept := col[k : len(col)-k]
		s := 0.0
		for _, v := range kept {
			s += v
		}
		out[i] = s / float64(len(kept))
	}
	return out
}

// KrumAgg implements Krum (Blanchard et al.): select the single update
// minimizing the sum of squared distances to its n-f-2 nearest
// neighbors. Tolerates f Byzantine workers among n when n >= 2f+3.
type KrumAgg struct {
	// F is the assumed number of Byzantine workers.
	F int
}

// Name implements Aggregator.
func (KrumAgg) Name() string { return "krum" }

// Aggregate implements Aggregator.
func (a KrumAgg) Aggregate(updates [][]float64) []float64 {
	n := len(updates)
	if n == 0 {
		return nil
	}
	if n == 1 {
		out := make([]float64, len(updates[0]))
		copy(out, updates[0])
		return out
	}
	k := n - a.F - 2
	if k < 1 {
		k = 1
	}
	if k > n-1 {
		k = n - 1
	}
	bestIdx, bestScore := 0, 0.0
	dists := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				dists[j] = 0
				continue
			}
			d := 0.0
			for c := range updates[i] {
				diff := updates[i][c] - updates[j][c]
				d += diff * diff
			}
			dists[j] = d
		}
		sort.Float64s(dists)
		score := 0.0
		// dists[0] is the zero self-distance; take the next k.
		for c := 1; c <= k; c++ {
			score += dists[c]
		}
		if i == 0 || score < bestScore {
			bestIdx, bestScore = i, score
		}
	}
	out := make([]float64, len(updates[bestIdx]))
	copy(out, updates[bestIdx])
	return out
}

// FedConfig parameterizes a federated run.
type FedConfig struct {
	Rounds int
	// ByzFrac is the fraction of workers that are Byzantine.
	ByzFrac float64
	Agg     Aggregator
}

// Each worker's round: fedLocalSteps SGD steps at rate fedLR.
const (
	fedLocalSteps = 5
	fedLR         = 0.5
)

// FedResult captures a run's trajectory.
type FedResult struct {
	Model *Model
	// TestAcc is accuracy per round on the held-out set.
	TestAcc []float64
	// BytesSent counts total communication (8 bytes per weight per
	// worker message, up and down).
	BytesSent float64
}

// RunFederated trains over the shards with a central aggregator.
// Workers with index < ByzFrac*n are Byzantine: each sends its honest
// update negated and scaled up (a sign flip).
func RunFederated(shards []*Dataset, test *Dataset, cfg FedConfig) *FedResult {
	if cfg.Agg == nil {
		cfg.Agg = MeanAgg{}
	}
	if cfg.Rounds <= 0 {
		cfg.Rounds = 20
	}
	dim := 0
	for _, s := range shards {
		if s.Len() > 0 {
			dim = len(s.X[0])
			break
		}
	}
	global := NewModel(dim)
	nByz := int(cfg.ByzFrac * float64(len(shards)))
	res := &FedResult{}
	msgBytes := float64(len(global.W) * 8)

	for r := 0; r < cfg.Rounds; r++ {
		var updates [][]float64
		for wi, shard := range shards {
			local := global.Clone()
			for s := 0; s < fedLocalSteps; s++ {
				local.SGDStep(shard.X, shard.Y, fedLR)
			}
			w := make([]float64, len(local.W))
			copy(w, local.W)
			if wi < nByz {
				for i := range w {
					w[i] = -10 * w[i]
				}
			}
			updates = append(updates, w)
			res.BytesSent += 2 * msgBytes // down + up
		}
		global.W = cfg.Agg.Aggregate(updates)
		res.TestAcc = append(res.TestAcc, global.Accuracy(test.X, test.Y))
	}
	res.Model = global
	return res
}
