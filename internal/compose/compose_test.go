package compose

import (
	"errors"
	"strings"
	"testing"
	"time"

	"iobt/internal/asset"
	"iobt/internal/geo"
	"iobt/internal/sim"
)

// gridPool lays out n x n sensor candidates evenly over a 1000x1000 area
// with the given sense and radio ranges.
func gridPool(n int, senseRange, radioRange float64) []Candidate {
	var out []Candidate
	step := 1000.0 / float64(n)
	id := asset.ID(0)
	for iy := 0; iy < n; iy++ {
		for ix := 0; ix < n; ix++ {
			out = append(out, Candidate{
				ID:  id,
				Pos: geo.Point{X: (float64(ix) + 0.5) * step, Y: (float64(iy) + 0.5) * step},
				Caps: asset.Capabilities{
					Modalities: asset.ModVisual,
					SenseRange: senseRange,
					RadioRange: radioRange,
					Compute:    50,
					Bandwidth:  500,
				},
				Trust:       0.9,
				Affiliation: asset.Blue,
			})
			id++
		}
	}
	return out
}

func areaGoal() Goal {
	return Goal{
		Name:         "test",
		Area:         geo.NewRect(geo.Point{X: 0, Y: 0}, geo.Point{X: 1000, Y: 1000}),
		Modalities:   asset.ModVisual,
		CoverageFrac: 0.9,
	}
}

func TestDeriveDefaults(t *testing.T) {
	req := Derive(Goal{Area: geo.NewRect(geo.Point{}, geo.Point{X: 100, Y: 100})})
	if req.CellNeed != 1 {
		t.Errorf("CellNeed = %d, want 1", req.CellNeed)
	}
	if len(req.Cells) == 0 {
		t.Fatal("no cells derived")
	}
	if req.NeedCells <= 0 || req.NeedCells > len(req.Cells) {
		t.Errorf("NeedCells = %d of %d", req.NeedCells, len(req.Cells))
	}
	for _, c := range req.Cells {
		if !req.Goal.Area.Contains(c) {
			t.Fatalf("cell %v outside area", c)
		}
	}
}

func TestDeriveDegenerateArea(t *testing.T) {
	req := Derive(Goal{Area: geo.Rect{}})
	if len(req.Cells) != 0 {
		t.Error("degenerate area should yield no cells")
	}
}

func TestGreedyCoversArea(t *testing.T) {
	pool := gridPool(10, 180, 300)
	req := Derive(areaGoal())
	comp, err := GreedySolver{}.Solve(req, pool)
	if err != nil {
		t.Fatalf("greedy: %v (assurance %+v)", err, comp)
	}
	if comp.Assurance.CoverageFrac < 0.9 {
		t.Errorf("coverage = %.2f", comp.Assurance.CoverageFrac)
	}
	if !comp.Assurance.Connected {
		t.Error("composite not connected")
	}
	if !comp.Assurance.Feasible {
		t.Errorf("not feasible: %v", comp.Assurance.Violations)
	}
	// Greedy should use far fewer than all 100 candidates.
	if len(comp.Members) > 60 {
		t.Errorf("greedy selected %d members; expected economy", len(comp.Members))
	}
}

func TestGreedyRespectsTrustFloor(t *testing.T) {
	pool := gridPool(8, 200, 300)
	for i := range pool {
		if i%2 == 0 {
			pool[i].Trust = 0.1
		}
	}
	g := areaGoal()
	g.MinTrust = 0.5
	req := Derive(g)
	comp, err := GreedySolver{}.Solve(req, pool)
	if err != nil {
		t.Fatalf("greedy: %v", err)
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

// TestGreedyLooksInsideRadioComponents: the best coverage pick is a wide
// sensor whose radio reaches nobody, so no relay chain ever connects the
// composite max-coverage starts. The grid around it is connected and
// covers the goal on its own; the solver must find that, not report
// "composite not connected" over a pool that holds a feasible answer
// (E2's 1000-asset row did, at about one seed in 24).
func TestGreedyLooksInsideRadioComponents(t *testing.T) {
	pool := gridPool(5, 180, 260)
	loner := pool[12]
	loner.ID = asset.ID(len(pool))
	loner.Pos = geo.Point{X: 510, Y: 510}
	loner.Caps.SenseRange = 450
	loner.Caps.RadioRange = 5
	pool = append(pool, loner)

	comp, err := GreedySolver{}.Solve(Derive(areaGoal()), pool)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	for _, id := range comp.Members {
		if id == loner.ID {
			t.Error("the unreachable sensor is a member of a connected composite")
		}
	}
}

func TestGreedyInfeasibleWhenPoolTooWeak(t *testing.T) {
	pool := gridPool(2, 50, 300) // 4 tiny sensors cannot cover 90%
	req := Derive(areaGoal())
	comp, err := GreedySolver{}.Solve(req, pool)
	if !errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), "coverage") {
		t.Fatalf("err = %v, want ErrInfeasible naming the coverage shortfall", err)
	}
	if comp == nil || comp.Assurance.Feasible {
		t.Error("infeasible composite should still report assurance")
	}
	if len(comp.Assurance.Violations) == 0 {
		t.Error("violations empty for infeasible composite")
	}
}

func TestGreedyResourceTopUp(t *testing.T) {
	pool := gridPool(6, 200, 300)
	// Add two compute-rich candidates far from coverage relevance.
	pool = append(pool,
		Candidate{ID: 1000, Pos: geo.Point{X: 500, Y: 500}, Caps: asset.Capabilities{Compute: 1e5, Bandwidth: 1e5, RadioRange: 400}, Trust: 0.9, Affiliation: asset.Blue},
	)
	g := areaGoal()
	g.Compute = 5e4
	g.Bandwidth = 5e4
	req := Derive(g)
	comp, err := GreedySolver{}.Solve(req, pool)
	if err != nil {
		t.Fatalf("greedy: %v (violations %v)", err, comp.Assurance.Violations)
	}
	if comp.Assurance.Compute < 5e4 {
		t.Errorf("compute = %v", comp.Assurance.Compute)
	}
	hasEdge := false
	for _, id := range comp.Members {
		if id == 1000 {
			hasEdge = true
		}
	}
	if !hasEdge {
		t.Error("compute-rich candidate not recruited")
	}
}

func TestGreedyKCoverage(t *testing.T) {
	pool := gridPool(12, 200, 350)
	g := areaGoal()
	g.Redundancy = 2
	g.CoverageFrac = 0.8
	req := Derive(g)
	comp, err := GreedySolver{}.Solve(req, pool)
	if err != nil {
		t.Fatalf("greedy k=2: %v", err)
	}
	g1 := areaGoal()
	g1.CoverageFrac = 0.8
	comp1, err := GreedySolver{}.Solve(Derive(g1), pool)
	if err != nil {
		t.Fatalf("greedy k=1: %v", err)
	}
	if len(comp.Members) <= len(comp1.Members) {
		t.Errorf("2-coverage used %d members, 1-coverage %d; want more for k=2",
			len(comp.Members), len(comp1.Members))
	}
}

func TestConnectivityRepairAddsBridges(t *testing.T) {
	// Two sensor clusters out of radio range, plus available bridge nodes
	// between them with no sensing value.
	var pool []Candidate
	mk := func(id asset.ID, x, y, sense, radio float64) Candidate {
		return Candidate{ID: id, Pos: geo.Point{X: x, Y: y},
			Caps:  asset.Capabilities{Modalities: asset.ModVisual, SenseRange: sense, RadioRange: radio, Compute: 10, Bandwidth: 100},
			Trust: 0.9, Affiliation: asset.Blue}
	}
	pool = append(pool, mk(0, 100, 500, 600, 300))
	pool = append(pool, mk(1, 900, 500, 600, 300))
	pool = append(pool, mk(2, 400, 500, 0, 300)) // stepping-stone relays
	pool = append(pool, mk(3, 700, 500, 0, 300))
	g := areaGoal()
	g.CoverageFrac = 0.8 // forces both clusters into the composite
	req := Derive(g)
	comp, err := GreedySolver{}.Solve(req, pool)
	if err != nil {
		t.Fatalf("greedy: %v (violations %v)", err, comp.Assurance.Violations)
	}
	if !comp.Assurance.Connected {
		t.Error("repair failed to connect clusters")
	}
	if len(comp.Members) < 4 {
		t.Errorf("expected bridges recruited, members = %v", comp.Members)
	}
}

func TestCSPFindsMinimal(t *testing.T) {
	// 3x3 grid with big sensors: CSP should find a small exact cover.
	pool := gridPool(3, 450, 900)
	g := areaGoal()
	g.CoverageFrac = 0.8
	req := Derive(g)
	comp, err := CSPSolver{}.Solve(req, pool)
	if err != nil {
		t.Fatalf("csp: %v", err)
	}
	greedy, err := GreedySolver{}.Solve(req, pool)
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	if len(comp.Members) > len(greedy.Members) {
		t.Errorf("CSP (%d members) worse than greedy (%d)", len(comp.Members), len(greedy.Members))
	}
	if !comp.Assurance.Feasible {
		t.Error("CSP solution infeasible")
	}
}

func TestCSPInfeasible(t *testing.T) {
	pool := gridPool(2, 40, 900)
	req := Derive(areaGoal())
	if _, err := solveCSP(req, pool, 10000, 4); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestCSPBudgetExhaustion(t *testing.T) {
	pool := gridPool(8, 60, 900) // needs many nodes; tiny budget
	req := Derive(areaGoal())
	if _, err := solveCSP(req, pool, 50, 20); err != ErrInfeasible {
		t.Errorf("err = %v, want ErrInfeasible on budget exhaustion", err)
	}
}

func TestRandomSolverEventuallyFeasibleOnEasyInstance(t *testing.T) {
	pool := gridPool(5, 400, 900) // generous sensors: most subsets work
	g := areaGoal()
	g.CoverageFrac = 0.6
	req := Derive(g)
	comp, err := RandomSolver{RNG: sim.NewRNG(3)}.solve(req, pool, 50, randomMaxSize)
	if err != nil {
		t.Fatalf("random solver failed easy instance: %v", err)
	}
	if !comp.Assurance.Feasible {
		t.Error("claimed success but infeasible")
	}
}

func TestRandomSolverFailsHardInstance(t *testing.T) {
	// Tight coverage with small sensors: random needs near-perfect
	// placement and should fail with a modest attempt budget.
	pool := gridPool(10, 110, 300)
	g := areaGoal()
	g.CoverageFrac = 0.95
	req := Derive(g)
	comp, err := RandomSolver{RNG: sim.NewRNG(4)}.solve(req, pool, 5, 30)
	if err == nil {
		t.Skip("random got lucky; acceptable but rare")
	}
	if comp != nil && comp.Assurance.Feasible {
		t.Error("error returned with feasible assurance")
	}
}

func TestRecomposeRepairsLoss(t *testing.T) {
	pool := gridPool(10, 180, 300)
	req := Derive(areaGoal())
	comp, err := GreedySolver{}.Solve(req, pool)
	if err != nil {
		t.Fatalf("initial solve: %v", err)
	}
	// Fail a third of the members.
	failed := map[asset.ID]bool{}
	for i, id := range comp.Members {
		if i%3 == 0 {
			failed[id] = true
		}
	}
	// Remove failed nodes from the pool too (they are dead).
	var pool2 []Candidate
	for _, c := range pool {
		if !failed[c.ID] {
			pool2 = append(pool2, c)
		}
	}
	repaired, err := Recompose(req, comp, failed, pool2)
	if err != nil {
		t.Fatalf("recompose: %v (violations %v)", err, repaired.Assurance.Violations)
	}
	if repaired.Assurance.CoverageFrac < 0.9 {
		t.Errorf("repaired coverage = %.2f", repaired.Assurance.CoverageFrac)
	}
	for _, id := range repaired.Members {
		if failed[id] {
			t.Errorf("failed member %d still present", id)
		}
	}
	// Survivors should be retained (incrementality).
	surv := map[asset.ID]bool{}
	for _, id := range comp.Members {
		if !failed[id] {
			surv[id] = true
		}
	}
	kept := 0
	for _, id := range repaired.Members {
		if surv[id] {
			kept++
		}
	}
	if kept < len(surv) {
		t.Errorf("recompose dropped %d survivors", len(surv)-kept)
	}
}

func TestRecomposeNilPrevious(t *testing.T) {
	pool := gridPool(10, 180, 300)
	req := Derive(areaGoal())
	comp, err := Recompose(req, nil, nil, pool)
	if err != nil {
		t.Fatalf("recompose from scratch: %v", err)
	}
	if !comp.Assurance.Feasible {
		t.Error("infeasible")
	}
}

func TestEvaluateRiskFraction(t *testing.T) {
	pool := gridPool(4, 300, 900)
	pool[0].Affiliation = asset.Gray
	pool[1].Trust = 0.1
	g := areaGoal()
	g.MinTrust = 0.3
	g.CoverageFrac = 0.5
	req := Derive(g)
	a := Evaluate(req, pool)
	wantRisk := 2.0 / float64(len(pool))
	if a.RiskFrac != wantRisk {
		t.Errorf("RiskFrac = %v, want %v", a.RiskFrac, wantRisk)
	}
}

func TestEvaluateLatencyBound(t *testing.T) {
	// A long chain has a large diameter; tight MaxLatency must flag it.
	var members []Candidate
	for i := 0; i < 10; i++ {
		members = append(members, Candidate{
			ID: asset.ID(i), Pos: geo.Point{X: float64(i) * 90, Y: 0},
			Caps:  asset.Capabilities{Modalities: asset.ModVisual, SenseRange: 100, RadioRange: 100},
			Trust: 0.9, Affiliation: asset.Blue,
		})
	}
	g := Goal{
		Area:         geo.NewRect(geo.Point{}, geo.Point{X: 900, Y: 50}),
		Modalities:   asset.ModVisual,
		CoverageFrac: 0.5,
		MaxLatency:   10 * time.Millisecond,
	}
	req := Derive(g)
	a := Evaluate(req, members)
	if a.EstLatency <= 10*time.Millisecond {
		t.Errorf("EstLatency = %v; chain of 10 should exceed 2 hops", a.EstLatency)
	}
	if a.Feasible {
		t.Error("latency violation not flagged")
	}
}

func TestEvaluateEmptyMembers(t *testing.T) {
	req := Derive(areaGoal())
	a := Evaluate(req, nil)
	if a.Feasible {
		t.Error("empty composite cannot be feasible for a coverage goal")
	}
	if a.CoverageFrac != 0 || a.MeanTrust != 0 {
		t.Error("empty composite stats should be zero")
	}
	if !a.Connected {
		t.Error("empty composite is trivially connected")
	}
}

func TestPoolFromPopulationExcludesRedAndDead(t *testing.T) {
	terr := geo.NewOpenTerrain(1000, 1000)
	pop := asset.NewPopulation(terr)
	mk := func(aff asset.Affiliation) asset.ID {
		a := &asset.Asset{Affiliation: aff, Class: asset.ClassSensor,
			Caps: asset.DefaultCaps(asset.ClassSensor), Online: true,
			Mobility: &geo.Static{P: geo.Point{X: 500, Y: 500}}}
		a.Energy = 100
		return pop.Add(a)
	}
	blue := mk(asset.Blue)
	mk(asset.Red)
	deadID := mk(asset.Blue)
	pop.Kill(deadID)
	pool := PoolFromPopulation(pop, nil)
	if len(pool) != 1 || pool[0].ID != blue {
		t.Errorf("pool = %+v, want only blue alive", pool)
	}
	if pool[0].Trust != 0.5 {
		t.Errorf("nil ledger trust = %v, want 0.5", pool[0].Trust)
	}
}

// A repair in mid-mission builds a pool and filters it; neither may cost
// more than the pool itself, or missions that repair allocate visibly
// more than missions that do not (PERF.md, PR 24).
func TestPoolIsOneAllocationAndFilterSharesIt(t *testing.T) {
	pop := asset.NewPopulation(geo.NewOpenTerrain(1000, 1000))
	for i := 0; i < 100; i++ {
		a := &asset.Asset{Affiliation: asset.Blue, Class: asset.ClassSensor,
			Caps: asset.DefaultCaps(asset.ClassSensor), Online: true,
			Mobility: &geo.Static{P: geo.Point{X: float64(10 * i), Y: 500}}}
		a.Energy = 100
		pop.Add(a)
	}
	var pool []Candidate
	if n := testing.AllocsPerRun(10, func() { pool = PoolFromPopulation(pop, nil) }); n != 1 {
		t.Errorf("PoolFromPopulation: %v allocs, want 1", n)
	}
	req := Derive(areaGoal())
	if got := filterEligible(req, pool); len(got) != len(pool) || &got[0] != &pool[0] {
		t.Error("filterEligible copied a pool it dropped nobody from")
	}
	pool[3].Trust = 0.1
	req.Goal.MinTrust = 0.3
	got := filterEligible(req, pool)
	if len(got) != len(pool)-1 || &got[0] == &pool[0] || len(pool) != 100 || pool[3].Trust != 0.1 {
		t.Errorf("filterEligible kept %d of %d, or edited the caller's pool", len(got), len(pool))
	}
}
