package alloc

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMaxMinFairBasic(t *testing.T) {
	flows := []Flow{
		{ID: 1, Weight: 1, Demand: 10},
		{ID: 2, Weight: 1, Demand: 100},
		{ID: 3, Weight: 1, Demand: 100},
	}
	got := MaxMinFair(100, flows)
	// Flow 1 is satisfied (10); the rest split 90 evenly.
	if got[0] != 10 || math.Abs(got[1]-45) > 1e-9 || math.Abs(got[2]-45) > 1e-9 {
		t.Errorf("alloc = %v, want [10 45 45]", got)
	}
}

func TestMaxMinFairWeights(t *testing.T) {
	flows := []Flow{
		{ID: 1, Weight: 3, Demand: 1000},
		{ID: 2, Weight: 1, Demand: 1000},
	}
	got := MaxMinFair(100, flows)
	if math.Abs(got[0]-75) > 1e-9 || math.Abs(got[1]-25) > 1e-9 {
		t.Errorf("alloc = %v, want [75 25]", got)
	}
}

func TestMaxMinFairSurplus(t *testing.T) {
	flows := []Flow{{ID: 1, Weight: 1, Demand: 10}, {ID: 2, Weight: 1, Demand: 20}}
	got := MaxMinFair(1000, flows)
	if got[0] != 10 || got[1] != 20 {
		t.Errorf("alloc = %v, want fully satisfied", got)
	}
}

func TestMaxMinFairEdges(t *testing.T) {
	if got := MaxMinFair(0, []Flow{{ID: 1, Weight: 1, Demand: 5}}); got[0] != 0 {
		t.Error("zero capacity should allocate nothing")
	}
	if got := MaxMinFair(10, nil); len(got) != 0 {
		t.Error("nil flows should return empty")
	}
	got := MaxMinFair(10, []Flow{{ID: 1, Weight: 0, Demand: 5}, {ID: 2, Weight: 1, Demand: 0}})
	if got[0] != 0 || got[1] != 0 {
		t.Error("zero-weight/zero-demand flows should get nothing")
	}
}

// Properties: allocations never exceed demand, never go negative, and
// never exceed capacity in total.
func TestMaxMinFairInvariants(t *testing.T) {
	prop := func(capRaw uint16, demands []uint8) bool {
		capacity := float64(capRaw)
		flows := make([]Flow, len(demands))
		for i, d := range demands {
			flows[i] = Flow{ID: i, Weight: 1 + float64(i%3), Demand: float64(d)}
		}
		got := MaxMinFair(capacity, flows)
		total := 0.0
		for i := range flows {
			if got[i] < -1e-9 || got[i] > flows[i].Demand+1e-9 {
				return false
			}
			total += got[i]
		}
		return total <= capacity+1e-6
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestFIFOOrderMatters(t *testing.T) {
	flows := []Flow{
		{ID: 1, Class: ClassUntrusted, Demand: 90},
		{ID: 2, Class: ClassMission, Demand: 50},
	}
	got := FIFO(100, flows)
	if got[0] != 90 || got[1] != 10 {
		t.Errorf("FIFO = %v, want attacker-first starvation [90 10]", got)
	}
}

func TestIsolationProtectsMission(t *testing.T) {
	// Attacker demands everything; mission demands modest traffic.
	flows := []Flow{
		{ID: 1, Class: ClassMission, Weight: 1, Demand: 50},
		{ID: 2, Class: ClassUntrusted, Weight: 1, Demand: 10000},
	}
	got := Isolated(100, flows, DefaultShares())
	if got[0] < 50-1e-9 {
		t.Errorf("mission goodput = %v, want full 50 despite flood", got[0])
	}
	// Untrusted is capped at its share plus spill.
	if got[1] > 50+1e-9 {
		t.Errorf("untrusted took %v of 100", got[1])
	}
}

func TestIsolationSpillsUnusedShare(t *testing.T) {
	// Only telemetry flows: they should receive more than their 25%.
	flows := []Flow{{ID: 1, Class: ClassTelemetry, Weight: 1, Demand: 1000}}
	got := Isolated(100, flows, DefaultShares())
	if got[0] < 99 {
		t.Errorf("telemetry got %v, want ~100 via spill", got[0])
	}
}

func TestIsolatedEdges(t *testing.T) {
	if got := Isolated(0, []Flow{{ID: 1, Class: ClassMission, Weight: 1, Demand: 5}}, DefaultShares()); got[0] != 0 {
		t.Error("zero capacity")
	}
	if got := Isolated(10, nil, DefaultShares()); len(got) != 0 {
		t.Error("nil flows")
	}
	// Unconfigured class gets nothing until spill.
	flows := []Flow{{ID: 1, Class: Class(99), Weight: 1, Demand: 10}}
	got := Isolated(100, flows, DefaultShares())
	if got[0] < 10-1e-9 {
		t.Errorf("unconfigured class should be served by spill: %v", got)
	}
}

func TestAdmissionClips(t *testing.T) {
	flows := []Flow{{ID: 1, Demand: 100}, {ID: 2, Demand: 3}}
	got := Admission(flows, 10)
	if got[0].Demand != 10 || got[1].Demand != 3 {
		t.Errorf("admission = %+v", got)
	}
	if flows[0].Demand != 100 {
		t.Error("Admission mutated input")
	}
	same := Admission(flows, 0)
	if same[0].Demand != 100 {
		t.Error("non-positive limit should be a no-op")
	}
}

func TestGoodput(t *testing.T) {
	flows := []Flow{
		{ID: 1, Class: ClassMission, Demand: 10},
		{ID: 2, Class: ClassUntrusted, Demand: 10},
		{ID: 3, Class: ClassMission, Demand: 10},
	}
	alloc := []float64{5, 7, 2}
	if g := MissionGoodput(flows, alloc); g != 7 {
		t.Errorf("goodput = %v, want 7", g)
	}
}

// TestSaturationShape is the E9 claim in miniature: as attacker demand
// grows, FIFO mission goodput collapses while Isolated stays flat.
func TestSaturationShape(t *testing.T) {
	mission := Flow{ID: 1, Class: ClassMission, Weight: 1, Demand: 40}
	for _, attack := range []float64{0, 100, 1000, 10000} {
		flows := []Flow{
			{ID: 2, Class: ClassUntrusted, Weight: 1, Demand: attack}, // arrives first
			mission,
		}
		fifo := FIFO(100, flows)
		iso := Isolated(100, flows, DefaultShares())
		if attack >= 100 && fifo[1] > 10 {
			t.Errorf("FIFO mission goodput %v should collapse at attack %v", fifo[1], attack)
		}
		if iso[1] < 40-1e-9 {
			t.Errorf("isolated mission goodput %v dropped at attack %v", iso[1], attack)
		}
	}
}

func TestFairnessIndexComparison(t *testing.T) {
	// Under contention, max-min fair allocation is fairer than FIFO.
	flows := []Flow{
		{ID: 1, Weight: 1, Demand: 80},
		{ID: 2, Weight: 1, Demand: 80},
		{ID: 3, Weight: 1, Demand: 80},
	}
	fifo := FIFO(100, flows)
	fair := MaxMinFair(100, flows)
	for i, v := range fair {
		if math.Abs(v-100.0/3) > 1e-9 {
			t.Errorf("max-min on symmetric flows should split evenly: flow %d got %v", i, v)
		}
	}
	if fifo[0] <= fifo[2] {
		t.Errorf("FIFO should favour the first arrival: %v", fifo)
	}
}
