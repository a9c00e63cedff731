package learn

import (
	"testing"

	"iobt/internal/sim"
)

func fedWorld(seed int64, workers int) ([]*Dataset, *Dataset) {
	rng := sim.NewRNG(seed)
	train := GenDataset(rng, GenConfig{N: 2000, Dim: 5})
	test := GenDatasetFromW(rng, train.TrueW, 500, 0.05)
	shards := train.Split(rng, workers)
	return shards, test
}

func finalAcc(r *FedResult) float64 {
	if len(r.TestAcc) == 0 {
		return 0
	}
	return r.TestAcc[len(r.TestAcc)-1]
}

func TestFedAvgCleanConverges(t *testing.T) {
	shards, test := fedWorld(1, 20)
	res := RunFederated(shards, test, FedConfig{Rounds: 25, Agg: MeanAgg{}})
	if acc := finalAcc(res); acc < 0.9 {
		t.Errorf("clean FedAvg accuracy = %.3f", acc)
	}
	if res.BytesSent <= 0 {
		t.Error("no communication accounted")
	}
}

func TestFedAvgPoisonedCollapses(t *testing.T) {
	shards, test := fedWorld(2, 20)
	res := RunFederated(shards, test, FedConfig{
		Rounds: 25, ByzFrac: 0.3, Agg: MeanAgg{},
	})
	if acc := finalAcc(res); acc > 0.75 {
		t.Errorf("FedAvg under 30%% sign-flip should collapse, got %.3f", acc)
	}
}

func TestRobustAggregatorsSurviveAttack(t *testing.T) {
	for _, tc := range []struct {
		name string
		agg  Aggregator
	}{
		{"median", MedianAgg{}},
		{"trimmed", TrimmedMeanAgg{K: 6}},
		{"krum", KrumAgg{F: 6}},
	} {
		shards, test := fedWorld(3, 20)
		res := RunFederated(shards, test, FedConfig{
			Rounds: 25, ByzFrac: 0.3, Agg: tc.agg,
		})
		if acc := finalAcc(res); acc < 0.85 {
			t.Errorf("%s under 30%% sign-flip: accuracy %.3f, want >= 0.85", tc.name, acc)
		}
	}
}

func TestAggregatorEdgeCases(t *testing.T) {
	for _, agg := range []Aggregator{MeanAgg{}, MedianAgg{}, TrimmedMeanAgg{K: 1}, KrumAgg{F: 1}} {
		if agg.Name() == "" {
			t.Error("aggregator without name")
		}
		if got := agg.Aggregate(nil); got != nil {
			t.Errorf("%s: empty aggregate = %v", agg.Name(), got)
		}
		one := agg.Aggregate([][]float64{{1, 2, 3}})
		if len(one) != 3 || one[0] != 1 {
			t.Errorf("%s: single update aggregate = %v", agg.Name(), one)
		}
	}
}

func TestMedianEvenCount(t *testing.T) {
	got := (MedianAgg{}).Aggregate([][]float64{{1}, {3}, {5}, {100}})
	if got[0] != 4 {
		t.Errorf("median = %v, want 4", got[0])
	}
}

func TestTrimmedMeanClampsK(t *testing.T) {
	got := (TrimmedMeanAgg{K: 5}).Aggregate([][]float64{{1}, {2}, {3}})
	// K clamps to 1: keep {2}.
	if got[0] != 2 {
		t.Errorf("trimmed = %v, want 2", got[0])
	}
}

func TestKrumPicksInlier(t *testing.T) {
	updates := [][]float64{
		{1, 1}, {1.1, 0.9}, {0.9, 1.1}, {1.05, 1}, // honest cluster
		{-50, 40}, // outlier
	}
	got := (KrumAgg{F: 1}).Aggregate(updates)
	if got[0] < 0 {
		t.Errorf("krum picked the outlier: %v", got)
	}
}
