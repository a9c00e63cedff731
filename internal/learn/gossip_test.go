package learn

import (
	"testing"

	"iobt/internal/sim"
)

func gossipWorld(seed int64, nodes int) ([]*Dataset, *Dataset) {
	rng := sim.NewRNG(seed)
	train := GenDataset(rng, GenConfig{N: 1500, Dim: 4})
	test := GenDatasetFromW(rng, train.TrueW, 400, 0.05)
	return train.Split(rng, nodes), test
}

func lastF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return v[len(v)-1]
}

func TestTopologyShapes(t *testing.T) {
	if e := Edges(Ring(10)(0)); e != 10 {
		t.Errorf("ring edges = %d, want 10", e)
	}
	if e := Edges(Star(10)(0)); e != 9 {
		t.Errorf("star edges = %d, want 9", e)
	}
	if e := Edges(Full(10)(0)); e != 45 {
		t.Errorf("full edges = %d, want 45", e)
	}
	if e := Edges(Ring(1)(0)); e != 0 {
		t.Errorf("singleton ring edges = %d", e)
	}
	h := Hierarchical(16)(0)
	if Edges(h) >= Edges(Full(16)(0)) {
		t.Error("hierarchical should be sparser than full")
	}
	// Every non-head node must reach a head.
	for i := 4; i < 16; i++ {
		if len(h[i]) == 0 {
			t.Errorf("node %d disconnected in hierarchical", i)
		}
	}
}

func TestGossipConvergesOnRing(t *testing.T) {
	shards, test := gossipWorld(1, 16)
	res := RunGossip(shards, test, Ring(16), GossipConfig{Rounds: 60})
	if acc := lastF(res.MeanAcc); acc < 0.85 {
		t.Errorf("ring gossip accuracy = %.3f", acc)
	}
	// Consensus: non-IID local gradients sustain a disagreement floor,
	// but gossip must keep it small relative to the model scale.
	meanNorm := 0.0
	for _, m := range res.Models {
		meanNorm += normL2(m.W)
	}
	meanNorm /= float64(len(res.Models))
	if final := res.Disagreement[len(res.Disagreement)-1]; final > 0.3*meanNorm {
		t.Errorf("disagreement %.3f too large vs model norm %.3f", final, meanNorm)
	}
}

func TestGossipFullBeatsRingPerRound(t *testing.T) {
	shards, test := gossipWorld(2, 16)
	ring := RunGossip(shards, test, Ring(16), GossipConfig{Rounds: 15})
	full := RunGossip(shards, test, Full(16), GossipConfig{Rounds: 15})
	if lastF(full.MeanAcc) < lastF(ring.MeanAcc)-0.02 {
		t.Errorf("full (%.3f) should converge at least as fast as ring (%.3f) per round",
			lastF(full.MeanAcc), lastF(ring.MeanAcc))
	}
	if full.BytesSent <= ring.BytesSent {
		t.Error("full topology must cost more communication")
	}
}

func TestGossipEmpty(t *testing.T) {
	res := RunGossip(nil, nil, Ring(0), GossipConfig{})
	if len(res.Models) != 0 {
		t.Error("empty gossip should return empty result")
	}
}

func TestCostAccuracyTradeoffExists(t *testing.T) {
	// E10's shape: under a byte budget, a sparse topology can beat a
	// dense one because it affords more rounds.
	shards, test := gossipWorld(5, 16)
	budget := 400_000.0 // bytes

	accUnderBudget := func(topo Topology, perRoundEdges int) float64 {
		msg := float64((4 + 1) * 8)
		rounds := int(budget / (msg * 2 * float64(perRoundEdges)))
		if rounds < 1 {
			rounds = 1
		}
		res := RunGossip(shards, test, topo, GossipConfig{Rounds: rounds})
		return lastF(res.MeanAcc)
	}
	ringAcc := accUnderBudget(Ring(16), Edges(Ring(16)(0)))
	fullAcc := accUnderBudget(Full(16), Edges(Full(16)(0)))
	// With a tight budget the ring affords ~7x the rounds; it should win
	// or at least tie. (The crossover direction is what E10 charts.)
	if ringAcc < fullAcc-0.05 {
		t.Errorf("budgeted ring %.3f much worse than full %.3f; expected sparse to compete", ringAcc, fullAcc)
	}
}
