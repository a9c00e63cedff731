package game

import (
	"math"
	"testing"

	"iobt/internal/sim"
)

func TestJammingGameStructure(t *testing.T) {
	m := JammingGame(4)
	if m.Rows() != 4 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d", m.Rows(), m.Cols())
	}
	if m.Payoff[2][2] != 0 || m.Payoff[1][3] != 1 {
		t.Errorf("payoffs wrong: %v", m.Payoff)
	}
	clamped := JammingGame(0)
	if clamped.Rows() != 1 || clamped.Payoff[0][0] != 0 {
		t.Errorf("clamping wrong: %+v", clamped)
	}
}

func TestFictitiousPlayJammingEquilibrium(t *testing.T) {
	const n = 5
	m := JammingGame(n)
	res := FictitiousPlay(m, sim.NewRNG(1))
	wantValue := 1 - 1.0/n
	if math.Abs(res.Value-wantValue) > 0.02 {
		t.Errorf("value = %.3f, want ~%.3f", res.Value, wantValue)
	}
	// Both mixes approach uniform 1/n.
	for i, p := range res.RowMix {
		if math.Abs(p-1.0/n) > 0.05 {
			t.Errorf("row mix[%d] = %.3f, want ~%.3f", i, p, 1.0/n)
		}
	}
	for j, p := range res.ColMix {
		if math.Abs(p-1.0/n) > 0.05 {
			t.Errorf("col mix[%d] = %.3f, want ~%.3f", j, p, 1.0/n)
		}
	}
	if res.Exploitability > 0.05 {
		t.Errorf("exploitability = %.3f, want near 0", res.Exploitability)
	}
}

func TestMoreChannelsDiluteJammer(t *testing.T) {
	rng := sim.NewRNG(2)
	v3 := FictitiousPlay(JammingGame(3), rng).Value
	v10 := FictitiousPlay(JammingGame(10), rng).Value
	if v10 <= v3 {
		t.Errorf("value with 10 channels (%.3f) not above 3 channels (%.3f)", v10, v3)
	}
}

func TestFictitiousPlayMatchingPennies(t *testing.T) {
	// Classic: value 0, uniform mixes.
	m := &Matrix{Payoff: [][]float64{{1, -1}, {-1, 1}}}
	res := FictitiousPlay(m, sim.NewRNG(3))
	if math.Abs(res.Value) > 0.02 {
		t.Errorf("matching pennies value = %.3f, want ~0", res.Value)
	}
	if math.Abs(res.RowMix[0]-0.5) > 0.05 {
		t.Errorf("row mix = %v, want ~uniform", res.RowMix)
	}
}

func TestFictitiousPlayDominantStrategy(t *testing.T) {
	// Row 1 dominates row 0; column 0 dominates column 1 (for the
	// minimizer). Equilibrium: (1, 0) with value 2.
	m := &Matrix{Payoff: [][]float64{{1, 3}, {2, 4}}}
	res := FictitiousPlay(m, sim.NewRNG(4))
	if res.RowMix[1] < 0.95 {
		t.Errorf("row should settle on dominant action: %v", res.RowMix)
	}
	if res.ColMix[0] < 0.95 {
		t.Errorf("col should settle on dominant action: %v", res.ColMix)
	}
	if math.Abs(res.Value-2) > 0.05 {
		t.Errorf("value = %.3f, want 2", res.Value)
	}
}

func TestFictitiousPlayEdges(t *testing.T) {
	if res := FictitiousPlay(&Matrix{}, nil); len(res.RowMix) != 0 {
		t.Error("empty game should return empty result")
	}
	// A nil RNG starts both players at action 0.
	m := JammingGame(2)
	res := FictitiousPlay(m, nil)
	if len(res.RowMix) != 2 {
		t.Error("defaults failed")
	}
}
