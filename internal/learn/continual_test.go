package learn

import (
	"testing"

	"iobt/internal/sim"
)

// contexts builds three clearly distinct concepts over the same feature
// space.
func contexts(rng *sim.RNG, dim int) [][]float64 {
	var ws [][]float64
	for c := 0; c < 3; c++ {
		w := make([]float64, dim+1)
		for i := range w {
			w[i] = rng.Norm(0, 3)
		}
		ws = append(ws, w)
	}
	// Make context 1 roughly the negation of 0 for maximal interference.
	for i := range ws[1] {
		ws[1][i] = -ws[0][i]
	}
	return ws
}

func TestCatastrophicForgettingBaselineVsContextual(t *testing.T) {
	rng := sim.NewRNG(1)
	ws := contexts(rng, ContinualDim)

	single := NewSingleLearner()
	ctx := NewContextualLearner()

	// Stream: 3 phases, batches of 20.
	var evalSets []*Dataset
	for phase := 0; phase < 3; phase++ {
		evalSets = append(evalSets, GenDatasetFromW(rng, ws[phase], 400, 0.02))
		for b := 0; b < 40; b++ {
			batch := GenDatasetFromW(rng, ws[phase], 20, 0.02)
			single.Observe(batch.X, batch.Y)
			ctx.Observe(batch.X, batch.Y)
		}
	}

	// Retention on context 0 after training through 1 and 2.
	singleOld := single.Predictor().Accuracy(evalSets[0].X, evalSets[0].Y)
	ctxOld := ctx.BestAccuracy(evalSets[0].X, evalSets[0].Y)
	if ctxOld < 0.85 {
		t.Errorf("contextual retention on old context = %.3f", ctxOld)
	}
	if singleOld > ctxOld-0.1 {
		t.Errorf("baseline (%.3f) should forget context 0 relative to contextual (%.3f)", singleOld, ctxOld)
	}
	if ctx.NumContexts() < 2 {
		t.Errorf("contextual learner detected %d contexts, want >= 2", ctx.NumContexts())
	}
}

func TestContextualReusesStoredModel(t *testing.T) {
	rng := sim.NewRNG(2)
	ws := contexts(rng, ContinualDim)
	ctx := NewContextualLearner()
	phase := func(w []float64, batches int) {
		for b := 0; b < batches; b++ {
			batch := GenDatasetFromW(rng, w, 20, 0.02)
			ctx.Observe(batch.X, batch.Y)
		}
	}
	phase(ws[0], 40)
	phase(ws[1], 40)
	n := ctx.NumContexts()
	phase(ws[0], 10) // return to a known context
	if ctx.NumContexts() != n {
		t.Errorf("revisiting a known context spawned a new model: %d -> %d", n, ctx.NumContexts())
	}
	if ctx.Switches == 0 {
		t.Error("no context switches recorded")
	}
}

func TestContinualEdges(t *testing.T) {
	ctx := NewContextualLearner()
	ctx.Observe(nil, nil) // no panic
	if ctx.NumContexts() != 1 {
		t.Error("empty observation should not change contexts")
	}
	s := NewSingleLearner()
	s.Observe(nil, nil)
	if s.Predictor() == nil {
		t.Error("nil predictor")
	}
}
