package game

import (
	"math"
	"testing"
	"testing/quick"

	"iobt/internal/sim"
)

func uniformTasks(n int, value float64) []Task {
	ts := make([]Task, n)
	for i := range ts {
		ts[i] = Task{Value: value}
	}
	return ts
}

func rampTasks(n int) []Task {
	ts := make([]Task, n)
	for i := range ts {
		ts[i] = Task{Value: float64(i + 1)}
	}
	return ts
}

func TestBestResponseConverges(t *testing.T) {
	g := New(rampTasks(20), 50, sim.NewRNG(1))
	g.Randomize()
	rounds, ok := g.Run()
	if !ok {
		t.Fatal("did not converge")
	}
	if !g.IsEquilibrium() {
		t.Fatal("converged state is not a Nash equilibrium")
	}
	t.Logf("converged in %d rounds", rounds)
}

func TestPotentialMonotoneUnderBestResponse(t *testing.T) {
	g := New(rampTasks(15), 40, sim.NewRNG(2))
	g.Randomize()
	prev := g.Potential()
	for r := 0; r < 50; r++ {
		switched := g.Round()
		cur := g.Potential()
		if cur < prev-1e-9 {
			t.Fatalf("potential decreased: %v -> %v", prev, cur)
		}
		prev = cur
		if switched == 0 {
			break
		}
	}
}

func TestEquilibriumSpreadsAgents(t *testing.T) {
	// Equal-value tasks with as many agents as tasks: equilibrium is one
	// agent per task (any doubling leaves an empty task worth more).
	g := New(uniformTasks(10, 5), 10, sim.NewRNG(3))
	g.Randomize()
	if _, ok := g.Run(); !ok {
		t.Fatal("did not converge")
	}
	for task := 0; task < 10; task++ {
		if g.load[task] != 1 {
			t.Fatalf("load(%d) = %d, want 1 (perfect spread)", task, g.load[task])
		}
	}
	if g.Welfare() != 50 {
		t.Errorf("welfare = %v, want 50", g.Welfare())
	}
}

func TestWelfareNearOptimal(t *testing.T) {
	tasks := rampTasks(30)
	g := New(tasks, 20, sim.NewRNG(4))
	g.Randomize()
	if _, ok := g.Run(); !ok {
		t.Fatal("did not converge")
	}
	opt := OptimalWelfare(tasks, 20)
	if g.Welfare() < opt/2 {
		t.Errorf("welfare %v below PoA bound opt/2 = %v", g.Welfare(), opt/2)
	}
}

func TestOptimalWelfare(t *testing.T) {
	tasks := []Task{{Value: 5}, {Value: 1}, {Value: 9}}
	if got := OptimalWelfare(tasks, 2); got != 14 {
		t.Errorf("OptimalWelfare = %v, want 14", got)
	}
	if got := OptimalWelfare(tasks, 10); got != 15 {
		t.Errorf("OptimalWelfare with surplus agents = %v, want 15", got)
	}
	if got := OptimalWelfare(nil, 3); got != 0 {
		t.Errorf("OptimalWelfare(nil) = %v", got)
	}
}

func TestUtilitySharing(t *testing.T) {
	g := New([]Task{{Value: 12}}, 3, sim.NewRNG(5))
	// All on task 0.
	for i := 0; i < 3; i++ {
		if u := g.Utility(i); u != 4 {
			t.Errorf("utility = %v, want 12/3", u)
		}
	}
}

func checkConsistent(t *testing.T, g *Game) {
	t.Helper()
	counts := make([]int, len(g.tasks))
	for i := range g.choice {
		counts[g.choice[i]]++
	}
	for task := range counts {
		if counts[task] != g.load[task] {
			t.Fatalf("load bookkeeping broken at task %d: %d vs %d", task, counts[task], g.load[task])
		}
	}
}

// Property: load bookkeeping stays consistent and potential never
// decreases across best-response rounds, for random instances.
func TestGameInvariants(t *testing.T) {
	prop := func(seed int64, nTasksRaw, nAgentsRaw uint8) bool {
		nTasks := int(nTasksRaw%20) + 1
		nAgents := int(nAgentsRaw%50) + 1
		rng := sim.NewRNG(seed)
		tasks := make([]Task, nTasks)
		for i := range tasks {
			tasks[i] = Task{Value: rng.Uniform(0.1, 10)}
		}
		g := New(tasks, nAgents, rng.Derive("game"))
		g.Randomize()
		prev := g.Potential()
		for r := 0; r < 30; r++ {
			s := g.Round()
			cur := g.Potential()
			if cur < prev-1e-9 {
				return false
			}
			prev = cur
			// Consistency.
			total := 0
			for task := 0; task < nTasks; task++ {
				if g.load[task] < 0 {
					return false
				}
				total += g.load[task]
			}
			if total != nAgents {
				return false
			}
			if s == 0 {
				return g.IsEquilibrium()
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestDecomposeWelfareAndScaling(t *testing.T) {
	rng := sim.NewRNG(8)
	tasks := rampTasks(60)
	nAgents := 60

	flat := New(tasks, nAgents, rng.Derive("flat"))
	flat.Randomize()
	if _, ok := flat.Run(); !ok {
		t.Fatal("flat game did not converge")
	}

	d := Decompose(tasks, nAgents, rng)
	if _, ok := d.Run(); !ok {
		t.Fatal("decomposed games did not converge")
	}

	// Decomposition must stay within a modest factor of the flat welfare.
	if d.Welfare() < 0.8*flat.Welfare() {
		t.Errorf("decomposed welfare %v << flat %v", d.Welfare(), flat.Welfare())
	}
	if len(d.Sectors) != sectors {
		t.Errorf("sectors = %d", len(d.Sectors))
	}
	// Agents conserved.
	total := 0
	for _, g := range d.Sectors {
		total += len(g.choice)
	}
	if total != nAgents {
		t.Errorf("agents across sectors = %d, want %d", total, nAgents)
	}
	if d.Moves() == 0 {
		t.Error("no moves recorded")
	}
}

func TestDecomposeEdgeCases(t *testing.T) {
	rng := sim.NewRNG(9)
	d := Decompose(nil, 10, rng)
	if len(d.Sectors) != 0 {
		t.Error("empty task list should produce no sectors")
	}
	if d.Welfare() != 0 {
		t.Error("empty decomposition welfare should be 0")
	}
	d2 := Decompose(rampTasks(2), 10, rng)
	if len(d2.Sectors) > 2 {
		t.Errorf("more sectors than tasks: %d", len(d2.Sectors))
	}
	d3 := Decompose(rampTasks(4), 0, rng)
	if _, ok := d3.Run(); !ok {
		t.Error("zero-agent decomposition should trivially converge")
	}
}

func TestMovesCounting(t *testing.T) {
	g := New(rampTasks(5), 10, sim.NewRNG(10))
	g.Randomize()
	g.Round()
	if g.Moves.Value() != 10 {
		t.Errorf("moves after one round = %d, want 10", g.Moves.Value())
	}
}

func TestConvergenceScalesGently(t *testing.T) {
	// Rounds to converge should grow sublinearly with N (each round is
	// parallel local work) — the paper's scalability claim.
	rounds := func(n int) int {
		g := New(rampTasks(n), n, sim.NewRNG(11))
		g.Randomize()
		r, ok := g.Run()
		if !ok {
			t.Fatalf("no convergence at n=%d", n)
		}
		return r
	}
	r100 := rounds(100)
	r1000 := rounds(1000)
	if r1000 > r100*10 {
		t.Errorf("rounds grew superlinearly: %d -> %d", r100, r1000)
	}
	if math.IsNaN(float64(r1000)) {
		t.Fatal("unreachable")
	}
}
