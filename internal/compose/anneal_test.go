package compose

import (
	"testing"

	"iobt/internal/asset"
	"iobt/internal/sim"
)

func TestAnnealFeasible(t *testing.T) {
	pool := gridPool(10, 180, 300)
	req := Derive(areaGoal())
	comp, err := AnnealSolver{RNG: sim.NewRNG(1)}.Solve(req, pool)
	if err != nil {
		t.Fatalf("anneal: %v (violations %v)", err, comp.Assurance.Violations)
	}
	if !comp.Assurance.Feasible {
		t.Fatalf("infeasible: %v", comp.Assurance.Violations)
	}
}

func TestAnnealNotWorseThanGreedyBySize(t *testing.T) {
	pool := gridPool(12, 200, 350)
	g := areaGoal()
	g.CoverageFrac = 0.85
	req := Derive(g)
	greedy, err := GreedySolver{}.Solve(req, pool)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	ann, err := AnnealSolver{RNG: sim.NewRNG(2)}.solve(req, pool, 6000)
	if err != nil {
		t.Fatalf("anneal: %v", err)
	}
	// Annealing optimizes size; allow slack of one member for the
	// connectivity post-pass.
	if len(ann.Members) > len(greedy.Members)+1 {
		t.Errorf("anneal %d members vs greedy %d; refinement failed",
			len(ann.Members), len(greedy.Members))
	}
}

func TestAnnealDeterministicPerSeed(t *testing.T) {
	pool := gridPool(8, 200, 350)
	req := Derive(areaGoal())
	a, errA := AnnealSolver{RNG: sim.NewRNG(7)}.Solve(req, pool)
	b, errB := AnnealSolver{RNG: sim.NewRNG(7)}.Solve(req, pool)
	if (errA == nil) != (errB == nil) {
		t.Fatalf("errors differ: %v vs %v", errA, errB)
	}
	if len(a.Members) != len(b.Members) {
		t.Fatalf("same seed produced different composites: %d vs %d members",
			len(a.Members), len(b.Members))
	}
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			t.Fatal("same seed produced different member sets")
		}
	}
}

func TestAnnealEmptyPool(t *testing.T) {
	req := Derive(areaGoal())
	if _, err := (AnnealSolver{}).Solve(req, nil); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestAnnealRespectsTrustFloor(t *testing.T) {
	pool := gridPool(8, 200, 300)
	for i := range pool {
		if i%2 == 0 {
			pool[i].Trust = 0.1
		}
	}
	g := areaGoal()
	g.MinTrust = 0.5
	g.CoverageFrac = 0.6
	req := Derive(g)
	comp, err := AnnealSolver{RNG: sim.NewRNG(3)}.Solve(req, pool)
	if err != nil {
		t.Fatalf("anneal: %v", err)
	}
	low := map[asset.ID]bool{}
	for i := range pool {
		if pool[i].Trust < 0.5 {
			low[pool[i].ID] = true
		}
	}
	for _, id := range comp.Members {
		if low[id] {
			t.Errorf("low-trust candidate %d recruited", id)
		}
	}
}

func TestAnnealRespectsMaxMembers(t *testing.T) {
	pool := gridPool(10, 300, 900)
	g := areaGoal()
	g.CoverageFrac = 0.5
	g.MaxMembers = 6
	req := Derive(g)
	comp, err := AnnealSolver{RNG: sim.NewRNG(4)}.solve(req, pool, 8000)
	if err != nil {
		t.Fatalf("anneal: %v (violations %v)", err, comp.Assurance.Violations)
	}
	if len(comp.Members) > 6 {
		t.Errorf("members = %d > cap 6", len(comp.Members))
	}
}
