package adapt

import (
	"math"
	"testing"

	"iobt/internal/sim"
)

// envPerf builds a unimodal performance landscape peaked at opt.
func envPerf(opt float64) func(float64) float64 {
	return func(p float64) float64 {
		d := p - opt
		return math.Exp(-d * d)
	}
}

// TestPopulationConvergesToOptimum runs a seed sweep. StepsToReach stops
// the moment mean performance passes 0.9; with eight agents that only
// bounds the worst one at exp(-d*d) >= 8*0.9 - 7, |d| <= 1.27, and a
// 32-seed sweep measured the worst agent 0.40-0.80 from the optimum at
// that moment — the 0.7 this test used to ask of one stream sat inside
// that range. An agent only ever moves toward a better point, so the
// distances then shrink monotonically: twenty steps on, every agent of
// every seed was within 0.01.
func TestPopulationConvergesToOptimum(t *testing.T) {
	const target, agents = 0.9, 8
	atStop := math.Sqrt(-math.Log(agents*target - (agents - 1)))
	for seed := int64(1); seed <= 16; seed++ {
		params := []float64{-2, -1, 0, 1, 2, 3, 4, 5}
		pop := NewPopulation(sim.NewRNG(seed), params, envPerf(2.5))
		if _, ok := pop.StepsToReach(target, 500); !ok {
			t.Fatalf("seed %d: never reached target; mean perf %.3f", seed, pop.MeanPerf())
		}
		for _, v := range pop.Params {
			if math.Abs(v-2.5) > atStop {
				t.Errorf("seed %d: agent param %v is further from the optimum 2.5 than mean perf %.1f allows", seed, v, target)
			}
		}
		for i := 0; i < 20; i++ {
			pop.Step()
		}
		for _, v := range pop.Params {
			if math.Abs(v-2.5) > 0.1 {
				t.Errorf("seed %d: agent param %v still far from optimum 2.5 twenty steps after the team reached %.1f", seed, v, target)
			}
		}
	}
}

// TestDiversitySpeedsRecovery is the live [15]-[18] claim: after an
// environment shift, a parameter-diverse team recovers much faster than
// a homogeneous one because some member is already near the new optimum
// and imitation propagates its parameters.
func TestDiversitySpeedsRecovery(t *testing.T) {
	recover := func(diverse bool) int {
		rng := sim.NewRNG(2)
		var params []float64
		for i := 0; i < 12; i++ {
			if diverse {
				params = append(params, float64(i)-4) // spread -4..7
			} else {
				params = append(params, 0) // tuned for the old environment
			}
		}
		// The environment the team actually faces has its optimum at 6 —
		// far from where the homogeneous team was tuned. (Note that
		// prolonged imitation erases diversity: a team left to converge
		// becomes effectively homogeneous, which is why doctrine that
		// preserves heterogeneity matters.)
		pop := NewPopulation(rng, params, envPerf(6))
		steps, ok := pop.StepsToReach(0.5, 3000)
		if !ok {
			return 3000
		}
		return steps
	}
	homo := recover(false)
	div := recover(true)
	if div*3 > homo {
		t.Errorf("diverse recovery %d steps not clearly faster than homogeneous %d", div, homo)
	}
}

func TestPopulationEdges(t *testing.T) {
	rng := sim.NewRNG(3)
	empty := NewPopulation(rng, nil, envPerf(0))
	empty.Step() // no panic
	if empty.MeanPerf() != 0 {
		t.Error("empty population perf should be 0")
	}
	single := NewPopulation(rng, []float64{1}, envPerf(1))
	single.Step() // no neighbors: pure local search
	if single.MeanPerf() < 0.9 {
		t.Errorf("single agent at optimum perf = %v", single.MeanPerf())
	}
}
